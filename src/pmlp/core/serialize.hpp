// Plain-text serialization of every artifact the Fig. 2 flow hands between
// stages, so a FlowEngine run can checkpoint after any stage and resume
// bit-identically, plus the crash-safe commit and the --save-front serving
// directory. The formats themselves (one table of every pmlp-* magic, its
// file, owner, terminator and footer) and the record reader/writer they
// share are documented in record.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>

#include "pmlp/core/approx_mlp.hpp"
#include "pmlp/core/flow.hpp"
#include "pmlp/core/hardware_analysis.hpp"
#include "pmlp/nsga2/nsga2.hpp"

namespace pmlp::core {

/// Write the model (parameters + bit config). Throws on stream failure.
void save_model(const ApproxMlp& net, std::ostream& os);
[[nodiscard]] std::string to_text(const ApproxMlp& net);

/// Parse a model written by save_model. Throws std::invalid_argument on
/// malformed input (wrong magic/version, impossible topology, out-of-range
/// parameters, any conn or bias line missing).
[[nodiscard]] ApproxMlp load_model(std::istream& is);
[[nodiscard]] ApproxMlp from_text(const std::string& text);

/// File convenience wrappers (throw std::runtime_error on I/O failure).
void save_model_file(const ApproxMlp& net, const std::string& path);
[[nodiscard]] ApproxMlp load_model_file(const std::string& path);

// ---------------------------------------------------------------- artifacts
// FlowEngine checkpoint artifacts. All loaders throw std::invalid_argument
// on malformed input (bad magic/version, shape mismatches, out-of-range
// values, missing `end` terminator); all writers throw std::runtime_error
// on stream failure. Loaded artifacts are bit-identical to what was saved.

void save_dataset(const datasets::Dataset& d, std::ostream& os);
[[nodiscard]] datasets::Dataset load_dataset(std::istream& is);

void save_quant_dataset(const datasets::QuantizedDataset& d, std::ostream& os);
[[nodiscard]] datasets::QuantizedDataset load_quant_dataset(std::istream& is);

void save_float_mlp(const mlp::FloatMlp& net, std::ostream& os);
[[nodiscard]] mlp::FloatMlp load_float_mlp(std::istream& is);

void save_quant_mlp(const mlp::QuantMlp& net, std::ostream& os);
[[nodiscard]] mlp::QuantMlp load_quant_mlp(std::istream& is);

/// Baseline stage output: the quantized bespoke net [2] plus its 1 V
/// netlist pricing and split-half accuracies.
void save_baseline_pricing(const BaselinePricing& pricing, std::ostream& os);
[[nodiscard]] BaselinePricing load_baseline_pricing(std::istream& is);

/// GA / refinement stage output: perf counters + the estimated Pareto set
/// (each point embeds its approx-mlp v1 block).
void save_training_result(const TrainingResult& r, std::ostream& os);
[[nodiscard]] TrainingResult load_training_result(std::istream& is);

/// Hardware-analysis stage output: per-candidate netlist cost, test
/// accuracy and equivalence verdict.
void save_evaluated_points(std::span<const HwEvaluatedPoint> points,
                           std::ostream& os);
[[nodiscard]] std::vector<HwEvaluatedPoint> load_evaluated_points(
    std::istream& is);

/// NSGA-II generation checkpoint (pmlp-ga-state v1): the exact evolution
/// state at a generation boundary — survivor population in selection order
/// with ranks/crowding, the serialized RNG stream and the evaluation
/// counter — so a killed GA stage resumes bit-identically from its last
/// generation block instead of from scratch.
void save_ga_state(const nsga2::GenerationState& state, std::ostream& os);
[[nodiscard]] nsga2::GenerationState load_ga_state(std::istream& is);

// ------------------------------------------------------- checksum footers
// Versioned artifacts carry a trailing self-describing checksum line
//
//   # crc32 <8-hex-digits> lines <newline-count>
//
// over every byte that precedes it. The line sits AFTER the format's `end`
// terminator, so every loader (which stops consuming at `end`) is oblivious
// to it — old readers accept new files, and new readers accept old files
// without a footer (back-compat). read_artifact_file() verifies the footer
// when present, turning silent truncation/corruption into a deterministic
// std::invalid_argument instead of an incidental parse failure.

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of `n` bytes.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t n);

/// The footer line (newline-terminated) guarding `content`.
[[nodiscard]] std::string checksum_footer(const std::string& content);

/// Verify a trailing checksum footer if `content` has one. Any final line
/// starting with '#' must be a complete, matching crc32 footer — a footer
/// damaged by truncation throws std::invalid_argument (prefixed with
/// `what`), it never downgrades to "no footer". Content without a '#'
/// final line passes unverified (legacy artifacts).
void verify_checksum_footer(const std::string& content, const char* what);

/// Read a whole artifact file and verify its checksum footer (when
/// present). Throws std::runtime_error when the file cannot be read and
/// std::invalid_argument on checksum/footer mismatch. The returned content
/// still includes the footer line — loaders stop at `end` and never see it.
[[nodiscard]] std::string read_artifact_file(const std::string& path);

/// Crash-safe artifact commit: stream `writer` into `path + ".tmp"`, append
/// the checksum footer, fsync the temp file AND its parent directory, then
/// rename onto `path`. A kill or power loss at any instant leaves either
/// the complete old artifact or the complete new one — never a truncated
/// or empty file published under the final name. Throws std::runtime_error
/// on any I/O failure (the temp file is removed).
void write_artifact_file(const std::string& path,
                         const std::function<void(std::ostream&)>& writer);

// ----------------------------------------------------------- front artifacts
// A --save-front directory is the CLI's serving artifact: one front_NNN.model
// file per true-Pareto design plus an index.tsv naming every file with its
// exact test accuracy / area / power (written with max_digits10 precision, so
// the index round-trips the doubles bit-exactly and model-selection queries
// never tie-break on rounded values).

/// One served design: the index row plus the parsed model artifact.
struct FrontEntry {
  std::string file;              ///< index entry, e.g. "front_000.model"
  double test_accuracy = 0.0;
  double area_cm2 = 0.0;
  double power_mw = 0.0;
  bool functional_match = true;
  ApproxMlp model;
};

/// Strict loader of a --save-front directory: parses index.tsv, loads every
/// file it names, and REJECTS (std::invalid_argument) an index naming a
/// missing/corrupt file, a duplicate entry, or a directory holding any
/// front_*.model file the index does not name — a stale model from an
/// earlier, larger front must never be served by accident. Throws
/// std::runtime_error when the directory or index.tsv cannot be read.
[[nodiscard]] std::vector<FrontEntry> load_front_dir(const std::string& dir);

/// Loader for a campaign checkpoint tree (campaign.hpp layout): every flow
/// subdirectory holding an evaluated.txt contributes its true-Pareto subset
/// as entries named "<flow>/front_NNN.model". Flows that have not reached
/// the hardware stage yet are skipped (a live campaign can be served while
/// it runs); an empty result throws std::runtime_error.
[[nodiscard]] std::vector<FrontEntry> load_front_tree(const std::string& dir);

/// Serve-path entry point: a directory with an index.tsv loads as a front
/// directory, anything else as a campaign checkpoint tree.
[[nodiscard]] std::vector<FrontEntry> load_front_any(const std::string& dir);

/// Publish `entries` as a front directory at `dir` (entry i becomes
/// front_NNN.model with NNN = i; FrontEntry::file is ignored). Built in a
/// `.tmp` sibling and renamed into place before any previous directory is
/// removed, so a smaller front never leaves stale models next to a fresh
/// index and a killed writer never leaves a half-written `dir`. Throws
/// std::runtime_error on I/O failure.
void save_front_dir(std::span<const FrontEntry> entries,
                    const std::string& dir);

/// FNV-1a digest over a dataset's name, shape, features and labels — the
/// checkpoint's guard against resuming onto different data.
[[nodiscard]] std::uint64_t dataset_digest(const datasets::Dataset& d);

/// Exact double round-trip shared by all artifact formats: the writer
/// emits a C "%a" hexfloat token, the reader accepts any strtod-parseable
/// token and throws std::invalid_argument (prefixed with `what`) otherwise.
void write_hexdouble(std::ostream& os, double v);
[[nodiscard]] double read_hexdouble(std::istream& is, const char* what);

/// Incremental FNV-1a hasher for config fingerprints (checkpoint meta).
struct Fnv1a {
  std::uint64_t state = 1469598103934665603ull;

  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

}  // namespace pmlp::core
