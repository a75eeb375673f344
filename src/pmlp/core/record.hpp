// The one record reader/writer behind every pmlp-* artifact format.
//
// Every artifact the flow, the campaign workers and the serve path hand
// between processes is a versioned, line-oriented text file: a
// `<magic> v1` header, then one tagged record per line (`tag field field
// ...`), then a terminator. Integers are decimal, doubles are C "%a"
// hexfloats (exact IEEE-754 round trips, independent of locale and
// precision settings), and names are the rest of their line with `-`
// standing for the empty name. RecordWriter and RecordReader own that
// plumbing; the per-format code only says which records come in which
// order and what range each field may take.
//
// The formats. `<flow>` is a flow's checkpoint directory (a campaign tree
// holds one per flow under its root, next to campaign.txt); front_NNN.model
// lives in a --save-front directory. "crc" marks files committed through
// write_artifact_file, which appends a `# crc32 <hex> lines <n>` footer
// after the terminator (serialize.hpp):
//
//   magic               file                          owner        end     crc
//   pmlp-approx-mlp     front_NNN.model, and embedded serialize    EOF or  no
//                       per point in pmlp-training                 endmodel
//                       and pmlp-evaluated
//   pmlp-dataset        <flow>/train_raw.ds           serialize    end     yes
//                       <flow>/test_raw.ds
//   pmlp-quant-dataset  <flow>/train.qds, test.qds    serialize    end     yes
//   pmlp-float-mlp      <flow>/float_net.txt          serialize    end     yes
//   pmlp-quant-mlp      embedded in pmlp-baseline     serialize    end     outer
//   pmlp-baseline       <flow>/baseline.txt           serialize    end     yes
//   pmlp-training       <flow>/ga_front.txt           serialize    end     yes
//                       <flow>/refined_front.txt
//   pmlp-evaluated      <flow>/evaluated.txt          serialize    end     yes
//   pmlp-ga-state       <flow>/ga_state.txt           serialize    end     yes
//   pmlp-flow-meta      <flow>/meta.txt               flow_engine  end     yes
//   pmlp-campaign       campaign.txt                  worker       end     yes
//   pmlp-failures       <flow>/failures.txt           worker       end     yes
//   pmlp-claim          <flow>/claim.lock             worker       end     no
//   pmlp-beat           <flow>/beat.txt               worker       end     no
//   pmlp-done           <flow>/done.txt               worker       end     yes
//   pmlp-failed         <flow>/failed.txt             worker       end     yes
//
// The claim is created once with O_EXCL and the beat is rewritten by
// tmp+rename; both are judged on their raw bytes, so they carry no footer.
// The approx-mlp block predates the `end` convention: a standalone model
// runs to EOF, an embedded one stops at `endmodel`. The front directory's
// index.tsv is a tab-separated table, not a record format (serialize.hpp).
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace pmlp::core {

/// Writes one artifact's records to a stream. `what` names the writer in
/// its stream-failure error. Each record is formatted into a buffer the
/// writer reuses (std::to_chars, no locale) and handed to the stream in
/// one write, so records interleave correctly with other writers of the
/// same stream.
class RecordWriter {
 public:
  RecordWriter(std::ostream& os, const char* what) : os_(os), what_(what) {}

  /// `<magic> v1`
  void header(const char* magic) { os_ << magic << " v1\n"; }

  /// One tagged line: the tag, then every field after a single space.
  /// Integers print in decimal (bool as 0/1, bytes as numbers), doubles as
  /// hexfloats, strings verbatim, and spans/vectors element by element.
  template <typename... Fields>
  void line(const char* tag, const Fields&... fields) {
    line_.clear();
    line_ += tag;
    (field(fields), ...);
    line_ += '\n';
    os_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
  }

  /// `tag <name>`, with `-` for the empty name (RecordReader::name).
  void name(const char* tag, const std::string& value) {
    line(tag, value.empty() ? std::string_view("-") : std::string_view(value));
  }

  /// `tag <text>` with line breaks flattened to spaces, so free text such
  /// as an error message stays one record (RecordReader::rest).
  void text(const char* tag, std::string value);

  /// The `end` terminator, then check().
  void end() {
    os_ << "end\n";
    check();
  }

  /// Throws std::runtime_error ("<what>: stream failure") if any write
  /// failed.
  void check() const;

  /// One bare hexfloat token, byte for byte C's "%a", no separator.
  static void hexfloat(std::ostream& os, double v);

 private:
  /// Append the "%a" hexfloat of `v` to `out`: normal values and zero as
  /// the sign, `0x` and std::to_chars' hex form of |v|; subnormals, inf
  /// and NaN through snprintf.
  static void append_hexfloat(std::string& out, double v);

  template <std::integral T>
  void field(T v) {
    char buf[24];  // any 64-bit integer, sign included
    const auto r = std::to_chars(buf, buf + sizeof buf, +v);
    line_ += ' ';
    line_.append(buf, static_cast<std::size_t>(r.ptr - buf));
  }
  void field(double v) {
    line_ += ' ';
    append_hexfloat(line_, v);
  }
  void field(std::string_view s) {
    line_ += ' ';
    line_ += s;
  }
  template <typename T>
  void field(std::span<const T> values) {
    for (const T& v : values) field(v);
  }
  template <typename T>
  void field(const std::vector<T>& values) {
    field(std::span<const T>(values));
  }

  std::ostream& os_;
  const char* what_;
  std::string line_;
};

/// Reads one artifact's records from a stream. Every failure throws
/// std::invalid_argument prefixed with the loader's `what`.
///
/// Tokens are scanned in place in the stream's buffered bytes. A canonical
/// token (what RecordWriter emits: `-?[0-9]+` integers, `-?0x` hexfloats of
/// the "%a" shape) is converted with std::from_chars and consumed; any other
/// token, a conversion error, a token not wholly buffered, or a stream not
/// in its default state (classic locale, skipws, decimal, no field width)
/// takes the `istream >>` / strtod path at the same position. A fast-path
/// value is one that path would return too, so what loads and what is
/// rejected does not depend on which path ran, and loaders nested on one
/// stream see it exactly where `>>` would have left it.
class RecordReader {
 public:
  RecordReader(std::istream& is, const char* what);

  [[noreturn]] void fail(std::string_view why) const;

  /// `<magic> v1`, else "bad header".
  void header(const char* magic);

  /// The next token must be `tag`.
  void expect(const char* tag);

  /// One `>>`-parsed value; fails with `why` when extraction fails.
  template <typename T>
  T value(const char* why) {
    T v{};
    if (!canonical(v) && !(is_ >> v)) fail(why);
    return v;
  }

  /// One `>>`-parsed value in [lo, hi]; fails with `why` otherwise.
  template <typename T>
  T value(T lo, T hi, const char* why) {
    T v{};
    if ((!canonical(v) && !(is_ >> v)) || v < lo || v > hi) fail(why);
    return v;
  }

  /// One hexfloat (any strtod-parseable token).
  double hex();

  /// The rest of the current line, leading blanks and trailing spaces/CR
  /// stripped; may be empty.
  std::string rest();

  /// A RecordWriter::name value: the non-empty rest of the line, `-`
  /// mapped back to "".
  std::string name();

  /// True when the next token starts with `c` (after whitespace).
  bool peek(char c);

  /// Next record tag of a block ended by `terminator` (nullptr: ended by
  /// EOF). Returns false on the terminator; fails with "missing
  /// <terminator>" at EOF. The view stays valid until the next call.
  bool next(std::string_view& tag, const char* terminator = "end");

  [[noreturn]] void unknown(std::string_view tag) const;

  /// `count` records tagged `tag` up to `end`; `one()` parses each record's
  /// fields. Any other tag fails, and so does a record count other than
  /// `count` (with `mismatch`).
  template <typename F>
  void records(const char* tag, std::size_t count, const char* mismatch,
               F&& one) {
    std::size_t n = 0;
    for (std::string_view t; next(t); ++n) {
      if (t != tag) unknown(t);
      one();
    }
    if (n != count) fail(mismatch);
  }

 private:
  /// The buffered bytes from the next token on, the whitespace before it
  /// consumed; empty when the stream is not good, not in its default
  /// state, or has nothing buffered.
  std::string_view buffered();

  /// Consume a token that starts `buffered` and ends at `last`, if a
  /// whitespace byte in the buffer follows it; else consume nothing.
  bool take(std::string_view buffered, const char* last);

  /// The next token into `out` (`is_ >> out` semantics).
  bool token(std::string& out);

  /// A canonical integer token converted and consumed; false (nothing
  /// consumed) for any other token or type.
  template <typename T>
  bool canonical(T& v) {
    if constexpr (std::integral<T> && !std::same_as<T, bool> &&
                  sizeof(T) > 1) {
      const std::string_view b = buffered();
      T parsed{};
      const auto r = std::from_chars(b.data(), b.data() + b.size(), parsed);
      if (r.ec != std::errc() || !take(b, r.ptr)) return false;
      v = parsed;
      return true;
    } else {
      return false;
    }
  }

  std::istream& is_;
  const char* what_;
  bool fast_;
  std::string tag_;
  std::string token_;
};

/// Which per-layer records (weight rows, connections, biases, layer
/// headers) a loader has seen, so a file missing any of them is rejected
/// instead of loading with silent defaults. Each layer has a fixed number
/// of slots; a slot seen twice stays seen.
class LayerCoverage {
 public:
  void add_layer(std::size_t slots);
  void mark(std::size_t layer, std::size_t slot) {
    seen_[offset_[layer] + slot] = 1;
  }
  [[nodiscard]] bool complete() const;

 private:
  std::vector<std::size_t> offset_;
  std::vector<char> seen_;
};

}  // namespace pmlp::core
