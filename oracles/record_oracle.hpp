// Test- and bench-only oracles for record I/O: the bytewise CRC-32 and the
// iostream, strtod and snprintf token conversions that the slicing-by-8
// crc32, RecordWriter's to_chars fields and RecordReader's from_chars
// fast paths replaced. The library must give the same checksums, write
// the same bytes and read the same values, accepting and rejecting the
// same tokens (record_test); bench_micro times the bytewise CRC as the
// reference.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <optional>
#include <sstream>
#include <string>

namespace pmlp::oracles {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), one table lookup per byte.
std::uint32_t crc32_bytewise(const void* data, std::size_t n);

/// An integer field as `os << +v` prints it.
template <std::integral T>
std::string format_int_iostream(T v) {
  std::ostringstream os;
  os << +v;
  return os.str();
}

/// A double field as snprintf's "%a" prints it.
std::string format_hexfloat_snprintf(double v);

/// One integer as `is >> v` extracts it; nullopt when extraction fails.
template <std::integral T>
std::optional<T> read_int_iostream(std::istream& is) {
  T v{};
  if (!(is >> v)) return std::nullopt;
  return v;
}

/// One hexfloat as the reader took it before from_chars: the next `>>`
/// token, parsed by strtod, which must consume all of it without ERANGE;
/// nullopt otherwise.
std::optional<double> read_hexfloat_strtod(std::istream& is);

}  // namespace pmlp::oracles
