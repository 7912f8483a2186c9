#pragma once
// ResultTable — the output format of every benchmark binary.
//
// Each bench prints the rows/series the paper's table or figure reports;
// ResultTable renders them as an aligned ASCII table and as CSV so the
// series can be re-plotted.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace hcsim {

/// Append `text` to `out` as one CSV cell: quoted, with its inner quotes
/// doubled, when it holds a comma, a quote or a newline.
void appendCsvCell(std::string& out, std::string_view text);

/// A table cell: text or a number (numbers are right-aligned and
/// formatted with a per-table precision).
using Cell = std::variant<std::string, double>;

class ResultTable {
 public:
  explicit ResultTable(std::string title = {}) : title_(std::move(title)) {}

  /// Set the column headers; must be called before addRow.
  void setHeader(std::vector<std::string> names);

  /// Append one row; the row is padded/truncated to the header width.
  void addRow(std::vector<Cell> cells);

  /// Number of digits after the decimal point for numeric cells (default 2).
  void setPrecision(int digits) { precision_ = digits; }

  std::size_t rowCount() const { return rows_.size(); }
  std::size_t columnCount() const { return header_.size(); }
  const std::string& title() const { return title_; }

  /// Cell accessor (row-major). Throws std::out_of_range on bad indices.
  const Cell& at(std::size_t row, std::size_t col) const;

  /// Render as an aligned ASCII table.
  std::string toString() const;

  /// Render as CSV (cells quoted by appendCsvCell).
  std::string toCsv() const;

  /// Convenience: stream toString().
  friend std::ostream& operator<<(std::ostream& os, const ResultTable& t);

 private:
  std::string formatCell(const Cell& c) const;

  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<Cell>> rows_;
  int precision_ = 2;
};

}  // namespace hcsim
