#include "util/random.hpp"

#include <cmath>

namespace hcsim {

std::uint64_t Rng::uniformInt(std::uint64_t n) {
  if (n == 0) return 0;
  // Lemire's nearly-divisionless method (64-bit variant using 128-bit mul).
  __extension__ using u128 = unsigned __int128;  // a GCC/Clang type, not ISO C++
  std::uint64_t x = next();
  u128 m = static_cast<u128>(x) * static_cast<u128>(n);
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = (0 - n) % n;
    while (l < t) {
      x = next();
      m = static_cast<u128>(x) * static_cast<u128>(n);
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::exponential(double mean) {
  // Inverse transform; uniform() can return 0, so flip to (0, 1].
  const double u = 1.0 - uniform();
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  if (haveSpare_) {
    haveSpare_ = false;
    return mean + stddev * spare_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double k = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * k;
  haveSpare_ = true;
  return mean + stddev * (u * k);
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double Rng::normalAtLeast(double mean, double stddev, double floor) {
  const double v = normal(mean, stddev);
  return v < floor ? floor : v;
}

}  // namespace hcsim
