#include "record_oracle.hpp"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace pmlp::oracles {

std::uint32_t crc32_bytewise(const void* data, std::size_t n) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string format_hexfloat_snprintf(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::optional<double> read_hexfloat_strtod(std::istream& is) {
  std::string token;
  if (!(is >> token)) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

}  // namespace pmlp::oracles
