// Differential tests of record I/O against its oracles (record_oracle.hpp):
// the slicing-by-8 crc32 against the bytewise CRC, RecordWriter's to_chars
// fields against iostream and snprintf "%a", and RecordReader's from_chars
// fast paths against `>>` and strtod. Reader cases compare the value, the
// accept/reject verdict and where the stream is left, on istringstreams and
// on streams that buffer a few bytes at a time (tokens straddling the
// buffer end take the iostream path).
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <tuple>
#include <typeinfo>
#include <vector>

#include "pmlp/core/chromosome.hpp"
#include "pmlp/core/record.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/datasets/synthetic.hpp"
#include "record_oracle.hpp"

namespace core = pmlp::core;
namespace ds = pmlp::datasets;
namespace mlp = pmlp::mlp;
namespace oracles = pmlp::oracles;

namespace {

/// A read-only streambuf over `text` that buffers `chunk` bytes at a time.
class ChunkedBuf : public std::streambuf {
 public:
  ChunkedBuf(std::string text, std::size_t chunk)
      : text_(std::move(text)), chunk_(chunk) {}

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (pos_ == text_.size()) return traits_type::eof();
    const std::size_t n = std::min(chunk_, text_.size() - pos_);
    char* b = text_.data() + pos_;
    pos_ += n;
    setg(b, b, b + n);
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::string text_;
  std::size_t chunk_;
  std::size_t pos_ = 0;
};

/// Runs `read(is)` on `text` over an istringstream (chunk 0) or a
/// ChunkedBuf, returning what it read and, after a success, the stream
/// state and the bytes left.
template <typename Read>
auto run_on(const std::string& text, std::size_t chunk, Read read) {
  ChunkedBuf buf(text, chunk);
  std::istringstream whole(text);
  std::istream chunked(&buf);
  std::istream& is = chunk == 0 ? static_cast<std::istream&>(whole) : chunked;
  const auto value = read(is);
  std::string left;
  std::ios::iostate state = std::ios::goodbit;
  if (value) {
    state = is.rdstate();
    left.assign(std::istreambuf_iterator<char>(is.rdbuf()), {});
  }
  return std::make_tuple(value, state, left);
}

/// The reader's verdict as the oracle reports it: the value, or nullopt
/// when the reader throws.
template <typename F>
auto caught(F f) -> std::optional<decltype(f())> {
  try {
    return f();
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

const std::size_t kChunks[] = {0, 1, 3, 7};

template <typename T>
void expect_int_agrees(const std::string& text) {
  for (std::size_t chunk : kChunks) {
    const auto fast = run_on(text, chunk, [](std::istream& is) {
      return caught(
          [&] { return core::RecordReader(is, "t").value<T>("bad"); });
    });
    const auto oracle = run_on(text, chunk, [](std::istream& is) {
      return oracles::read_int_iostream<T>(is);
    });
    EXPECT_EQ(fast, oracle) << "'" << text << "' chunk " << chunk << " as "
                            << typeid(T).name();
  }
}

void expect_hex_agrees(const std::string& text) {
  auto as_bits = [](std::optional<double> v) -> std::optional<std::uint64_t> {
    if (!v) return std::nullopt;
    return bits(*v);
  };
  for (std::size_t chunk : kChunks) {
    const auto fast = run_on(text, chunk, [&](std::istream& is) {
      return as_bits(caught([&] { return core::RecordReader(is, "t").hex(); }));
    });
    const auto oracle = run_on(text, chunk, [&](std::istream& is) {
      return as_bits(oracles::read_hexfloat_strtod(is));
    });
    EXPECT_EQ(fast, oracle) << "'" << text << "' chunk " << chunk;
  }
}

void expect_tag_agrees(const std::string& text) {
  for (std::size_t chunk : kChunks) {
    const auto fast = run_on(text, chunk, [](std::istream& is) {
      std::optional<std::string> tag;
      core::RecordReader r(is, "t");
      if (std::string_view t; r.next(t, nullptr)) tag = std::string(t);
      return tag;
    });
    const auto oracle = run_on(text, chunk, [](std::istream& is) {
      std::optional<std::string> tag;
      if (std::string t; is >> t) tag = t;
      return tag;
    });
    EXPECT_EQ(fast, oracle) << "'" << text << "' chunk " << chunk;
  }
}

void expect_reader_agrees(const std::string& token) {
  for (const std::string& text : {token + " next\n", "\t \n" + token}) {
    expect_int_agrees<int>(text);
    expect_int_agrees<long>(text);
    expect_int_agrees<unsigned>(text);
    expect_int_agrees<std::int64_t>(text);
    expect_int_agrees<std::uint32_t>(text);
    expect_int_agrees<std::uint64_t>(text);
    expect_int_agrees<std::size_t>(text);
    expect_hex_agrees(text);
    expect_tag_agrees(text);
  }
}

}  // namespace

TEST(RecordCrc, SlicingBy8MatchesBytewiseAtEveryLengthAndAlignment) {
  std::mt19937_64 rng(11);
  std::vector<unsigned char> buf(4096 + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; n <= 4096; ++n) {
      ASSERT_EQ(core::crc32(buf.data() + offset, n),
                oracles::crc32_bytewise(buf.data() + offset, n))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(RecordWriter, FieldsMatchIostreamAndSnprintf) {
  std::vector<double> doubles = {0.0,
                                 -0.0,
                                 1.0,
                                 -1.5,
                                 0.1,
                                 DBL_MIN,
                                 -DBL_MIN,
                                 DBL_MAX,
                                 -DBL_MAX,
                                 DBL_TRUE_MIN,
                                 -DBL_TRUE_MIN,
                                 DBL_MIN / 3,
                                 std::nextafter(DBL_MIN, 0.0),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::quiet_NaN(),
                                 -std::numeric_limits<double>::quiet_NaN()};
  std::mt19937_64 rng(12);
  for (int i = 0; i < 100000; ++i) {
    std::uint64_t b = rng();
    if (i % 4 == 0) b &= 0x800FFFFFFFFFFFFFull;  // subnormal or zero
    double v = 0;
    std::memcpy(&v, &b, sizeof v);
    doubles.push_back(v);
  }
  const std::int64_t ints[] = {0,
                               1,
                               -1,
                               std::numeric_limits<std::int64_t>::min(),
                               std::numeric_limits<std::int64_t>::max(),
                               std::numeric_limits<int>::min(),
                               static_cast<std::int64_t>(rng()),
                               static_cast<std::int64_t>(rng()) >> 33};

  // Line by line: one writer, so the reused line buffer is exercised too.
  std::ostringstream os;
  core::RecordWriter w(os, "t");
  auto written = [&] {
    std::string line = os.str();
    os.str("");
    return line;
  };
  for (double v : doubles) {
    w.line("d", v);
    ASSERT_EQ(written(), "d " + oracles::format_hexfloat_snprintf(v) + "\n");
  }
  for (std::int64_t v : ints) {
    const auto narrow = static_cast<int>(v);
    const auto byte = static_cast<std::uint8_t>(v);
    w.line("i", v, narrow, static_cast<std::uint64_t>(v), byte, v < 0);
    EXPECT_EQ(written(),
              "i " + oracles::format_int_iostream(v) + " " +
                  oracles::format_int_iostream(narrow) + " " +
                  oracles::format_int_iostream(static_cast<std::uint64_t>(v)) +
                  " " + oracles::format_int_iostream(byte) + " " +
                  oracles::format_int_iostream(v < 0) + "\n");
  }
  w.check();

  for (double v :
       {0.5, -DBL_TRUE_MIN, -std::numeric_limits<double>::infinity()}) {
    std::ostringstream one;
    core::write_hexdouble(one, v);
    EXPECT_EQ(one.str(), oracles::format_hexfloat_snprintf(v));
  }
}

TEST(RecordReader, EdgeTokensMatchIostreamAndStrtod) {
  for (const char* token :
       {"0", "-0", "7", "007", "+5", "-5", "12abc", "1-2", "--1", "-", "+",
        "4294967295", "4294967296", "-2147483648", "-2147483649",
        "9223372036854775807", "9223372036854775808", "-9223372036854775808",
        "-9223372036854775809", "18446744073709551615", "18446744073709551616",
        "99999999999999999999999", "1.5", "1e3", "0x10", "abc", "end",
        "0x1p+0", "-0x1p+0", "0x0p+0", "-0x0p+0", "0x1.8p+3", "-0x", "0x",
        "0x1", "0x1p", "0x1p+", "0x1.p+0", "0x.8p+1", "0X1p0", "0x1P+0",
        "0x1.Ap+0", "0x2p+0", "0xfp+0", "0x1p0", "0x-1p+0", "0x+1p+0",
        "0xinf", "inf", "-inf", "nan", "-nan", "infinity", "0x1p+1023",
        "0x1.fffffffffffffp+1023", "0x1p+1024", "0x1.fffffffffffff8p+1023",
        "0x1.fffffffffffff7p+1023", "0x1p-1022", "0x1.fffffffffffff8p-1023",
        "0x0.0000000000001p-1022", "0x1p-1074", "0x1p-1075", "0x1.8p-1075",
        "0x0.8p-1074", "0x1p-2000", "0x0p-5000", "0x1.00000000000008p+0",
        "0x1.0000000000001p+0", "0x1.00000000000001p+0", "0x1.8p+03",
        "0x1.8p+99999999999999999999", "0x0.fffffffffffffp-1022",
        "0x1.8p+3garbage", "1.5e-310", "0.1"}) {
    expect_reader_agrees(token);
  }
}

TEST(RecordReader, RandomTokensMatchIostreamAndStrtod) {
  std::mt19937_64 rng(13);
  std::vector<std::string> tokens;
  // Canonical: what the writer emits.
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t b = rng();
    if (i % 3 == 0) b &= 0x800FFFFFFFFFFFFFull;
    double v = 0;
    std::memcpy(&v, &b, sizeof v);
    tokens.push_back(oracles::format_hexfloat_snprintf(v));
  }
  for (int i = 0; i < 500; ++i) {
    const auto v = static_cast<std::int64_t>(rng()) >> (rng() % 64);
    tokens.push_back(oracles::format_int_iostream(v));
  }
  // Hexfloats past the writer's shape: long mantissas that round, and
  // exponents at the subnormal and overflow edges.
  const char* hex = "0123456789abcdef";
  for (int i = 0; i < 500; ++i) {
    std::string t = rng() % 2 ? "-0x" : "0x";
    t += hex[rng() % 3];
    t += '.';
    for (std::size_t k = 0, n = 10 + rng() % 8; k < n; ++k) {
      t += hex[rng() % 16];
    }
    const int exps[] = {-1075, -1074, -1023, -1022, 0, 1023, 1024};
    t += 'p';
    t += std::to_string(exps[rng() % 7]);
    tokens.push_back(t);
  }
  // Malformed: random strings over the characters numbers are made of.
  const std::string alphabet = "0123456789abcdefxXpP+-.eEin";
  for (int i = 0; i < 2000; ++i) {
    std::string t;
    for (std::size_t k = 0, n = 1 + rng() % 10; k < n; ++k) {
      t += alphabet[rng() % alphabet.size()];
    }
    if (rng() % 2) t = (rng() % 2 ? "0x" : "-0x") + t;
    tokens.push_back(t);
  }
  for (const auto& t : tokens) expect_reader_agrees(t);
}

TEST(RecordReader, NonDefaultStreamStateTakesIostreamPath) {
  std::istringstream hex_base("10 0x1p+0\n");
  hex_base >> std::hex;
  EXPECT_EQ(core::RecordReader(hex_base, "t").value<int>("bad"), 16);

  std::istringstream no_skip(" 5\n");
  no_skip >> std::noskipws;
  EXPECT_THROW((void)core::RecordReader(no_skip, "t").value<int>("bad"),
               std::invalid_argument);

  std::istringstream narrow("abcdef\n");
  narrow.width(3);
  core::RecordReader reader(narrow, "t");
  std::string_view tag;
  ASSERT_TRUE(reader.next(tag, nullptr));
  EXPECT_EQ(tag, "abc");
}

namespace {

core::ApproxMlp random_model(std::uint64_t seed) {
  core::ChromosomeCodec codec(mlp::Topology{{5, 3, 2}}, core::BitConfig{});
  std::mt19937_64 rng(seed);
  std::vector<int> genes(static_cast<std::size_t>(codec.n_genes()));
  for (int g = 0; g < codec.n_genes(); ++g) {
    const auto b = codec.bounds(g);
    genes[static_cast<std::size_t>(g)] =
        b.lo + static_cast<int>(rng() % static_cast<unsigned>(b.hi - b.lo + 1));
  }
  return codec.decode(genes);
}

/// `text` loaded through `load` from a ChunkedBuf and saved again.
template <typename Load, typename Save>
std::string reload_chunked(const std::string& text, std::size_t chunk,
                           Load load, Save save) {
  ChunkedBuf buf(text, chunk);
  std::istream is(&buf);
  std::ostringstream os;
  save(load(is), os);
  return os.str();
}

}  // namespace

TEST(RecordReader, NestedLoadersReadSharedStreamAtAnyBufferSize) {
  auto data = ds::generate(ds::breast_cancer_spec());
  data.features.resize(static_cast<std::size_t>(data.n_features) * 20);
  data.labels.resize(20);
  std::ostringstream ds_text;
  core::save_dataset(data, ds_text);

  core::BaselinePricing pricing;
  std::vector<mlp::QuantLayer> layers(2);
  layers[0] = {2, 1, 4, 2, {3, -4}, {10}};
  layers[1] = {1, 2, 8, 0, {127, -128}, {-5, 0}};
  pricing.net =
      mlp::QuantMlp(mlp::Topology{{2, 1, 2}}, std::move(layers), 8, 8);
  pricing.cost = {1.25, 0.5, 3.0, 42};
  pricing.train_accuracy = 0.75;
  pricing.test_accuracy = 2.0 / 3.0;
  std::ostringstream baseline_text;
  core::save_baseline_pricing(pricing, baseline_text);

  core::TrainingResult training;
  training.evaluations = 123;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    training.estimated_pareto.push_back(
        {random_model(seed), 0.5 + 0.1 * static_cast<double>(seed),
         static_cast<long>(seed * 10)});
  }
  std::ostringstream training_text;
  core::save_training_result(training, training_text);

  for (std::size_t chunk : {1, 2, 5, 64}) {
    EXPECT_EQ(reload_chunked(ds_text.str(), chunk, core::load_dataset,
                             core::save_dataset),
              ds_text.str());
    EXPECT_EQ(reload_chunked(baseline_text.str(), chunk,
                             core::load_baseline_pricing,
                             core::save_baseline_pricing),
              baseline_text.str());
    EXPECT_EQ(reload_chunked(training_text.str(), chunk,
                             core::load_training_result,
                             core::save_training_result),
              training_text.str());
  }
}
