#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace hcsim {

void ResultTable::setHeader(std::vector<std::string> names) { header_ = std::move(names); }

void ResultTable::addRow(std::vector<Cell> cells) {
  cells.resize(header_.size(), std::string{});
  rows_.push_back(std::move(cells));
}

const Cell& ResultTable::at(std::size_t row, std::size_t col) const {
  return rows_.at(row).at(col);
}

std::string ResultTable::formatCell(const Cell& c) const {
  if (const auto* s = std::get_if<std::string>(&c)) return *s;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision_, std::get<double>(c));
  return buf;
}

std::string ResultTable::toString() const {
  std::vector<std::size_t> width(header_.size(), 0);
  for (std::size_t i = 0; i < header_.size(); ++i) width[i] = header_[i].size();
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<std::string> r;
    r.reserve(row.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      r.push_back(formatCell(row[i]));
      width[i] = std::max(width[i], r.back().size());
    }
    rendered.push_back(std::move(r));
  }

  std::ostringstream os;
  if (!title_.empty()) os << "== " << title_ << " ==\n";
  auto writeRow = [&](const std::vector<std::string>& cells, const auto& isNumeric) {
    os << '|';
    for (std::size_t i = 0; i < header_.size(); ++i) {
      const std::string& v = i < cells.size() ? cells[i] : std::string{};
      const std::size_t pad = width[i] - v.size();
      if (isNumeric(i)) {
        os << ' ' << std::string(pad, ' ') << v << " |";
      } else {
        os << ' ' << v << std::string(pad, ' ') << " |";
      }
    }
    os << '\n';
  };
  writeRow(header_, [](std::size_t) { return false; });
  os << '|';
  for (std::size_t i = 0; i < header_.size(); ++i) os << std::string(width[i] + 2, '-') << '|';
  os << '\n';
  for (std::size_t r = 0; r < rendered.size(); ++r) {
    const auto& row = rows_[r];
    writeRow(rendered[r], [&](std::size_t i) {
      return i < row.size() && std::holds_alternative<double>(row[i]);
    });
  }
  return os.str();
}

void appendCsvCell(std::string& out, std::string_view text) {
  if (text.find_first_of(",\"\n") == std::string_view::npos) {
    out += text;
    return;
  }
  out += '"';
  for (char c : text) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

std::string ResultTable::toCsv() const {
  std::string csv;
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (i) csv += ',';
    appendCsvCell(csv, header_[i]);
  }
  csv += '\n';
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) csv += ',';
      appendCsvCell(csv, formatCell(row[i]));
    }
    csv += '\n';
  }
  return csv;
}

std::ostream& operator<<(std::ostream& os, const ResultTable& t) { return os << t.toString(); }

}  // namespace hcsim
