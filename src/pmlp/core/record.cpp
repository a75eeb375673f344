#include "pmlp/core/record.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace pmlp::core {

// ------------------------------------------------------------------ writer

void RecordWriter::hexfloat(std::ostream& os, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  os << buf;
}

void RecordWriter::text(const char* tag, std::string value) {
  std::replace(value.begin(), value.end(), '\n', ' ');
  std::replace(value.begin(), value.end(), '\r', ' ');
  line(tag, value);
}

void RecordWriter::check() const {
  if (!os_) throw std::runtime_error(std::string(what_) + ": stream failure");
}

// ------------------------------------------------------------------ reader

void RecordReader::fail(std::string_view why) const {
  throw std::invalid_argument(std::string(what_) + ": " + std::string(why));
}

void RecordReader::unknown(std::string_view tag) const {
  fail("unknown tag " + std::string(tag));
}

void RecordReader::header(const char* magic) {
  if (!(is_ >> tag_) || tag_ != magic || !(is_ >> tag_) || tag_ != "v1") {
    fail("bad header");
  }
}

void RecordReader::expect(const char* tag) {
  tag_.clear();
  if (!(is_ >> tag_) || tag_ != tag) {
    fail(std::string("expected '") + tag + "'" +
         (tag_.empty() ? "" : ", got '" + tag_ + "'"));
  }
}

double RecordReader::hex() {
  if (!(is_ >> token_)) fail("missing value");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(token_.c_str(), &end);
  if (end != token_.c_str() + token_.size() || errno == ERANGE) {
    fail("bad value '" + token_ + "'");
  }
  return v;
}

std::string RecordReader::rest() {
  while (is_.peek() == ' ' || is_.peek() == '\t') is_.get();
  std::string value;
  std::getline(is_, value);
  while (!value.empty() && (value.back() == '\r' || value.back() == ' ')) {
    value.pop_back();
  }
  return value;
}

std::string RecordReader::name() {
  std::string value = rest();
  if (value.empty()) fail("missing name");
  if (value == "-") value.clear();
  return value;
}

bool RecordReader::peek(char c) {
  is_ >> std::ws;
  return is_.peek() == c;
}

bool RecordReader::next(std::string_view& tag, const char* terminator) {
  if (!(is_ >> tag_)) {
    if (terminator == nullptr) return false;
    fail(std::string("missing ") + terminator);
  }
  tag = tag_;
  return terminator == nullptr || tag_ != terminator;
}

// ---------------------------------------------------------------- coverage

void LayerCoverage::add_layer(std::size_t slots) {
  offset_.push_back(seen_.size());
  seen_.resize(seen_.size() + slots, 0);
}

bool LayerCoverage::complete() const {
  return std::all_of(seen_.begin(), seen_.end(), [](char s) { return s; });
}

}  // namespace pmlp::core
