#include "pmlp/core/flow_engine.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "pmlp/core/fault_injection.hpp"
#include "pmlp/core/record.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/netlist/builders.hpp"
#include "pmlp/netlist/from_quant.hpp"
#include "pmlp/netlist/opt.hpp"

namespace pmlp::core {

namespace fs = std::filesystem;

namespace {

constexpr const char* kMetaFile = "meta.txt";
/// The split stage's four artifacts.
constexpr std::initializer_list<const char*> kSplitFiles = {
    "train_raw.ds", "test_raw.ds", "train.qds", "test.qds"};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Crash-safe artifact commit (serialize.hpp): checksum footer appended,
/// temp file + parent directory fsync'd before the rename — a SIGKILL or
/// power loss at any instant leaves either the old or the new artifact,
/// never a torn one. The fault-injection hook lets tests corrupt the
/// freshly committed file to exercise the quarantine path below.
void write_artifact(const std::string& path,
                    const std::function<void(std::ostream&)>& writer) {
  write_artifact_file(path, writer);
  FaultInjector::instance().maybe_corrupt_artifact(path);
}

/// Move a corrupt artifact aside as `<path>.corrupt-N` (kept for post-mortem,
/// never reloaded: loaders match exact names) so the stage can recompute.
void quarantine_artifact(const std::string& path) {
  std::error_code ec;
  for (int n = 0; n < 1000; ++n) {
    const std::string dst = path + ".corrupt-" + std::to_string(n);
    if (fs::exists(dst, ec)) continue;
    fs::rename(path, dst, ec);
    if (!ec) return;
  }
  fs::remove(path, ec);  // pathological: give up on preserving it
}

/// Load a checkpoint artifact with checksum verification. Corruption —
/// a failed footer check or a parse error — is NOT fatal: the damaged file
/// is quarantined and the caller recomputes the stage (every stage is a
/// bit-identical recompute, so dropping an artifact only costs time).
/// I/O errors (unreadable file) still throw std::runtime_error.
bool load_artifact(const std::string& path,
                   const std::function<void(std::istream&)>& parse) {
  try {
    std::istringstream is(read_artifact_file(path));
    parse(is);
    return true;
  } catch (const std::invalid_argument&) {
    quarantine_artifact(path);
    return false;
  }
}

/// The inputs of the split, backprop and baseline stages, hashed in the
/// order config_fingerprint() has always used: topology, split, backprop,
/// then bit widths. config_fingerprint() continues from this state, so the
/// field list exists once.
Fnv1a hash_upstream_inputs(const mlp::Topology& topology,
                           const FlowConfig& c) {
  Fnv1a h;
  h.u64(topology.layers.size());
  for (int n : topology.layers) h.i64(n);
  h.f64(c.train_fraction);
  h.u64(c.split_seed);
  const auto& bp = c.backprop;
  h.i64(bp.epochs);
  h.i64(bp.batch_size);
  h.f64(bp.learning_rate);
  h.f64(bp.momentum);
  h.f64(bp.lr_decay);
  h.f64(bp.l2);
  h.f64(bp.relu_leak);
  h.i64(bp.restarts);
  h.u64(bp.seed);
  const auto& b = c.trainer.bits;
  h.i64(b.weight_bits);
  h.i64(b.input_bits);
  h.i64(b.act_bits);
  h.i64(b.bias_bits);
  return h;
}

/// The (dataset digest, config fingerprint) pair that meta.txt guards.
using MetaIds = std::pair<std::uint64_t, std::uint64_t>;

/// Parse meta.txt; throws std::invalid_argument naming `what` when
/// malformed.
MetaIds read_meta(std::istream& is, const char* what) {
  RecordReader r(is, what);
  r.header("pmlp-flow-meta");
  r.expect("dataset");
  (void)r.name();  // informational; the digest is the guard
  r.expect("digest");
  const auto digest = r.value<std::uint64_t>("bad digest");
  r.expect("config");
  return {digest, r.value<std::uint64_t>("bad config")};
}

}  // namespace

const char* flow_stage_name(FlowStage stage) {
  switch (stage) {
    case FlowStage::kSplit: return "split";
    case FlowStage::kBackprop: return "backprop";
    case FlowStage::kBaseline: return "baseline";
    case FlowStage::kGa: return "ga";
    case FlowStage::kRefine: return "refine";
    case FlowStage::kHardware: return "hardware";
    case FlowStage::kSelect: return "select";
  }
  return "?";
}

const char* flow_stage_artifact(FlowStage stage) {
  switch (stage) {
    case FlowStage::kSplit: return "test.qds";  // last of the four committed
    case FlowStage::kBackprop: return "float_net.txt";
    case FlowStage::kBaseline: return "baseline.txt";
    case FlowStage::kGa: return "ga_front.txt";
    case FlowStage::kRefine: return "refined_front.txt";
    case FlowStage::kHardware: return "evaluated.txt";
    case FlowStage::kSelect: return nullptr;  // derived, never checkpointed
  }
  return nullptr;
}

FlowEngine::FlowEngine(datasets::Dataset data, mlp::Topology topology,
                       FlowConfig cfg)
    : data_(std::move(data)),
      topology_(std::move(topology)),
      config_(std::move(cfg)) {}

FlowEngine& FlowEngine::set_checkpoint_dir(std::string dir) {
  checkpoint_dir_ = std::move(dir);
  checkpoint_ready_ = false;
  return *this;
}

FlowEngine& FlowEngine::set_progress(StageCallback cb) {
  progress_ = std::move(cb);
  return *this;
}

FlowEngine& FlowEngine::adopt_upstream(UpstreamArtifacts up) {
  if (split_ || float_net_ || pricing_) {
    throw std::logic_error(
        "FlowEngine::adopt_upstream: an upstream stage already ran");
  }
  ensure_checkpoint();
  split_ = std::move(up.split);
  float_net_ = std::move(up.float_net);
  pricing_ = std::move(up.baseline);
  // Each artifact is committed exactly where the stage would have
  // recomputed it (missing, or downstream of a recompute), so the reload
  // decisions of the later stages are those of a flow that ran all three.
  if (!reloadable(kSplitFiles)) {
    commit_split();
    upstream_recomputed_ = true;
  }
  report(FlowStage::kSplit, 0.0, /*reused=*/true,
         static_cast<long>(split_->train.size() + split_->test.size()));
  if (!reloadable({"float_net.txt"})) {
    commit_float_net();
    upstream_recomputed_ = true;
  }
  report(FlowStage::kBackprop, 0.0, /*reused=*/true, config_.backprop.epochs);
  if (!reloadable({"baseline.txt"})) {
    commit_baseline();
    upstream_recomputed_ = true;
  }
  report(FlowStage::kBaseline, 0.0, /*reused=*/true,
         pricing_->cost.cell_count);
  return *this;
}

ThreadPool* FlowEngine::pool() {
  if (!pool_) pool_ = make_pool(config_.trainer.n_threads);
  return pool_.get();
}

std::string FlowEngine::path(const char* file) const {
  return (fs::path(checkpoint_dir_) / file).string();
}

std::uint64_t FlowEngine::config_fingerprint() const {
  // Everything that changes results. The bit-identical knobs —
  // trainer.n_threads and problem.eval_cache_capacity — are deliberately
  // excluded so a checkpoint can be resumed with different parallelism.
  // The hash continues from the upstream slice, so the fields keep the
  // order (and the values) that checkpoints on disk were written with.
  Fnv1a h = hash_upstream_inputs(topology_, config_);
  const FlowConfig& c = config_;
  const auto& ga = c.trainer.ga;
  h.i64(ga.population);
  h.i64(ga.generations);
  h.f64(ga.crossover_prob);
  h.f64(ga.mutation_prob);
  h.f64(ga.per_gene_rate);
  h.f64(ga.creep_fraction);
  h.i64(ga.creep_step);
  h.i64(static_cast<int>(ga.crossover));
  h.u64(ga.seed);
  const auto& p = c.trainer.problem;
  h.f64(p.max_accuracy_loss);
  h.f64(p.doping_fraction);
  h.u64(p.doping_seed);
  h.i64(p.domain_mutation ? 1 : 0);
  h.i64(p.coarse_pruning ? 1 : 0);
  h.i64(c.refine ? 1 : 0);
  h.f64(c.refine_max_point_loss);
  h.f64(c.report_max_loss);
  h.i64(c.hardware.equivalence_samples);
  return h.state;
}

std::uint64_t upstream_fingerprint(const datasets::Dataset& data,
                                   const mlp::Topology& topology,
                                   const FlowConfig& cfg) {
  Fnv1a h = hash_upstream_inputs(topology, cfg);
  h.u64(dataset_digest(data));
  return h.state;
}

std::optional<UpstreamArtifacts> FlowEngine::read_upstream(
    const std::string& dir) const {
  const auto load = [&](const char* file, auto parse) {
    std::istringstream is(read_artifact_file((fs::path(dir) / file).string()));
    return parse(is);
  };
  try {
    const auto meta = [](std::istream& is) { return read_meta(is, kMetaFile); };
    if (load(kMetaFile, meta) !=
        MetaIds{dataset_digest(data_), config_fingerprint()}) {
      return std::nullopt;
    }
    UpstreamArtifacts up;
    up.split.train_raw = load("train_raw.ds", load_dataset);
    up.split.test_raw = load("test_raw.ds", load_dataset);
    up.split.train = load("train.qds", load_quant_dataset);
    up.split.test = load("test.qds", load_quant_dataset);
    up.float_net = load("float_net.txt", load_float_mlp);
    up.baseline = load("baseline.txt", load_baseline_pricing);
    return up;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

void FlowEngine::ensure_checkpoint() {
  if (checkpoint_dir_.empty() || checkpoint_ready_) return;
  fs::create_directories(checkpoint_dir_);
  const std::uint64_t digest = dataset_digest(data_);
  const std::uint64_t config = config_fingerprint();
  const std::string meta_path = path(kMetaFile);
  if (fs::exists(meta_path)) {
    // Meta damage is always fatal (invalid_argument), never quarantined:
    // without the digest/fingerprint guard a resume could silently mix
    // artifacts from a different dataset or config.
    const std::string what = "FlowEngine: malformed checkpoint meta " +
                             meta_path;
    std::istringstream is;
    try {
      is.str(read_artifact_file(meta_path));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(what + ": " + e.what());
    }
    if (read_meta(is, what.c_str()) != MetaIds{digest, config}) {
      throw std::runtime_error(
          "FlowEngine: checkpoint " + checkpoint_dir_ +
          " was created for a different dataset or flow config (delete the "
          "directory to start over)");
    }
  } else {
    write_artifact(meta_path, [&](std::ostream& os) {
      RecordWriter w(os, meta_path.c_str());
      w.header("pmlp-flow-meta");
      w.name("dataset", data_.name);
      w.line("digest", digest);
      w.line("config", config);
      w.end();
    });
  }
  checkpoint_ready_ = true;
}

void FlowEngine::report(FlowStage stage, double wall_seconds, bool reused,
                        long items) {
  StageReport r;
  r.stage = stage;
  r.wall_seconds = wall_seconds;
  r.reused = reused;
  r.items = items;
  stages_.push_back(r);
  if (progress_) progress_(r);
}

// ------------------------------------------------------------------ stages

bool FlowEngine::reloadable(std::initializer_list<const char*> files) const {
  if (checkpoint_dir_.empty() || upstream_recomputed_) return false;
  for (const char* f : files) {
    if (!fs::exists(path(f))) return false;
  }
  return true;
}

void FlowEngine::commit_split() const {
  if (checkpoint_dir_.empty()) return;
  write_artifact(path("train_raw.ds"), [&](std::ostream& os) {
    save_dataset(split_->train_raw, os);
  });
  write_artifact(path("test_raw.ds"), [&](std::ostream& os) {
    save_dataset(split_->test_raw, os);
  });
  write_artifact(path("train.qds"), [&](std::ostream& os) {
    save_quant_dataset(split_->train, os);
  });
  write_artifact(path("test.qds"), [&](std::ostream& os) {
    save_quant_dataset(split_->test, os);
  });
}

void FlowEngine::commit_float_net() const {
  if (checkpoint_dir_.empty()) return;
  write_artifact(path("float_net.txt"), [&](std::ostream& os) {
    save_float_mlp(*float_net_, os);
  });
}

void FlowEngine::commit_baseline() const {
  if (checkpoint_dir_.empty()) return;
  write_artifact(path("baseline.txt"), [&](std::ostream& os) {
    save_baseline_pricing(*pricing_, os);
  });
}

void FlowEngine::stage_split() {
  if (split_) return;
  ensure_checkpoint();
  const auto t0 = std::chrono::steady_clock::now();
  if (reloadable(kSplitFiles)) {
    SplitArtifacts s;
    const bool ok =
        load_artifact(path("train_raw.ds"),
                      [&](std::istream& is) { s.train_raw = load_dataset(is); }) &&
        load_artifact(path("test_raw.ds"),
                      [&](std::istream& is) { s.test_raw = load_dataset(is); }) &&
        load_artifact(path("train.qds"),
                      [&](std::istream& is) { s.train = load_quant_dataset(is); }) &&
        load_artifact(path("test.qds"),
                      [&](std::istream& is) { s.test = load_quant_dataset(is); });
    if (ok) {
      split_ = std::move(s);
      report(FlowStage::kSplit, seconds_since(t0), /*reused=*/true,
             static_cast<long>(split_->train.size() + split_->test.size()));
      return;
    }
  }

  auto halves = datasets::stratified_split(data_, config_.train_fraction,
                                           config_.split_seed);
  SplitArtifacts s;
  s.train = datasets::quantize_inputs(halves.train,
                                      config_.trainer.bits.input_bits);
  s.test =
      datasets::quantize_inputs(halves.test, config_.trainer.bits.input_bits);
  s.train_raw = std::move(halves.train);
  s.test_raw = std::move(halves.test);
  split_ = std::move(s);
  commit_split();
  upstream_recomputed_ = true;
  report(FlowStage::kSplit, seconds_since(t0), /*reused=*/false,
         static_cast<long>(split_->train.size() + split_->test.size()));
}

void FlowEngine::stage_backprop() {
  if (float_net_) return;
  stage_split();
  ensure_checkpoint();
  const auto t0 = std::chrono::steady_clock::now();
  if (reloadable({"float_net.txt"})) {
    if (load_artifact(path("float_net.txt"), [&](std::istream& is) {
          float_net_ = load_float_mlp(is);
        })) {
      report(FlowStage::kBackprop, seconds_since(t0), /*reused=*/true,
             config_.backprop.epochs);
      return;
    }
  }

  float_net_ = mlp::train_float_mlp(topology_, split_->train_raw,
                                    config_.backprop, &backprop_report_,
                                    pool());
  commit_float_net();
  upstream_recomputed_ = true;
  report(FlowStage::kBackprop, seconds_since(t0), /*reused=*/false,
         config_.backprop.epochs);
}

void FlowEngine::stage_baseline() {
  if (pricing_) return;
  stage_backprop();
  ensure_checkpoint();
  const auto t0 = std::chrono::steady_clock::now();
  if (reloadable({"baseline.txt"})) {
    if (load_artifact(path("baseline.txt"), [&](std::istream& is) {
          pricing_ = load_baseline_pricing(is);
        })) {
      report(FlowStage::kBaseline, seconds_since(t0), /*reused=*/true,
             pricing_->cost.cell_count);
      return;
    }
  }

  BaselinePricing p;
  p.net = mlp::QuantMlp::from_float(
      *float_net_, config_.trainer.bits.weight_bits,
      config_.trainer.bits.input_bits, config_.trainer.bits.act_bits);
  p.train_accuracy = mlp::accuracy(p.net, split_->train);
  p.test_accuracy = mlp::accuracy(p.net, split_->test);
  const auto circuit = netlist::build_bespoke_mlp(
      netlist::to_bespoke_desc(p.net, split_->train_raw.name + "_exact"));
  p.cost = netlist::optimize(circuit.nl).cost(hwmodel::CellLibrary::egfet_1v());
  pricing_ = std::move(p);
  commit_baseline();
  upstream_recomputed_ = true;
  report(FlowStage::kBaseline, seconds_since(t0), /*reused=*/false,
         pricing_->cost.cell_count);
}

void FlowEngine::stage_ga() {
  if (training_) return;
  stage_baseline();
  ensure_checkpoint();
  const auto t0 = std::chrono::steady_clock::now();
  if (reloadable({"ga_front.txt"})) {
    if (load_artifact(path("ga_front.txt"), [&](std::istream& is) {
          training_ = load_training_result(is);
        })) {
      report(FlowStage::kGa, seconds_since(t0), /*reused=*/true,
             training_->evaluations);
      return;
    }
  }

  // Generation-level checkpointing (ga.checkpoint_every > 0, excluded from
  // the config fingerprint): every K generations the exact GenerationState
  // is committed to ga_state.txt, so a killed GA stage resumes from its
  // last generation block instead of from scratch — bit-identical either
  // way. The state file is an in-progress scratch artifact: it is consumed
  // on resume and deleted once ga_front.txt commits.
  TrainerConfig trainer_cfg = config_.trainer;
  const bool ga_checkpoints =
      !checkpoint_dir_.empty() && trainer_cfg.ga.checkpoint_every > 0;
  if (ga_checkpoints) {
    const std::string state_path = path("ga_state.txt");
    if (!upstream_recomputed_ && fs::exists(state_path)) {
      auto state = std::make_shared<nsga2::GenerationState>();
      if (load_artifact(state_path, [&](std::istream& is) {
            *state = load_ga_state(is);
          })) {
        if (static_cast<int>(state->population.size()) ==
                trainer_cfg.ga.population &&
            state->next_generation >= 0 &&
            state->next_generation <= trainer_cfg.ga.generations) {
          trainer_cfg.ga.resume = std::move(state);
        } else {
          // Checksummed but from an incompatible run (the knob is outside
          // the fingerprint guard): drop it and start the GA fresh.
          quarantine_artifact(state_path);
        }
      }
    }
    trainer_cfg.ga.on_checkpoint = [this,
                                    state_path](const nsga2::GenerationState&
                                                    state) {
      write_artifact(state_path, [&](std::ostream& os) {
        save_ga_state(state, os);
      });
      FaultInjector::instance().maybe_kill_at_ga_checkpoint(
          state.next_generation);
    };
  }

  training_ = train_ga_axc(topology_, split_->train, pricing_->net,
                           trainer_cfg, pool());
  if (!checkpoint_dir_.empty()) {
    write_artifact(path("ga_front.txt"), [&](std::ostream& os) {
      save_training_result(*training_, os);
    });
    if (ga_checkpoints) {
      std::error_code ec;
      fs::remove(path("ga_state.txt"), ec);  // superseded by ga_front.txt
    }
  }
  upstream_recomputed_ = true;
  report(FlowStage::kGa, seconds_since(t0), /*reused=*/false,
         training_->evaluations);
}

void FlowEngine::stage_refine() {
  if (refined_ || !config_.refine) return;
  stage_ga();
  ensure_checkpoint();
  const auto t0 = std::chrono::steady_clock::now();
  if (reloadable({"refined_front.txt"})) {
    if (load_artifact(path("refined_front.txt"), [&](std::istream& is) {
          training_ = load_training_result(is);
        })) {
      refined_ = true;
      report(FlowStage::kRefine, seconds_since(t0), /*reused=*/true,
             static_cast<long>(training_->estimated_pareto.size()));
      return;
    }
  }

  refine_report_ =
      refine_front(training_->estimated_pareto, split_->train,
                   pricing_->train_accuracy, config_.refine_max_point_loss,
                   config_.trainer.problem.max_accuracy_loss, pool());
  refined_ = true;
  if (!checkpoint_dir_.empty()) {
    write_artifact(path("refined_front.txt"), [&](std::ostream& os) {
      save_training_result(*training_, os);
    });
  }
  upstream_recomputed_ = true;
  report(FlowStage::kRefine, seconds_since(t0), /*reused=*/false,
         static_cast<long>(training_->estimated_pareto.size()));
}

void FlowEngine::stage_hardware() {
  if (evaluated_) return;
  stage_refine();
  stage_ga();  // refine may be disabled
  ensure_checkpoint();
  const auto t0 = std::chrono::steady_clock::now();
  if (reloadable({"evaluated.txt"})) {
    if (load_artifact(path("evaluated.txt"), [&](std::istream& is) {
          evaluated_ = load_evaluated_points(is);
        })) {
      report(FlowStage::kHardware, seconds_since(t0), /*reused=*/true,
             static_cast<long>(evaluated_->size()));
      return;
    }
  }

  evaluated_ = evaluate_hardware(training_->estimated_pareto, split_->test,
                                 hwmodel::CellLibrary::egfet_1v(),
                                 config_.hardware, pool());
  if (!checkpoint_dir_.empty()) {
    write_artifact(path("evaluated.txt"), [&](std::ostream& os) {
      save_evaluated_points(*evaluated_, os);
    });
  }
  upstream_recomputed_ = true;
  report(FlowStage::kHardware, seconds_since(t0), /*reused=*/false,
         static_cast<long>(evaluated_->size()));
}

void FlowEngine::stage_select() {
  if (selection_) return;
  stage_hardware();
  const auto t0 = std::chrono::steady_clock::now();
  Selection sel;
  sel.front = true_pareto(*evaluated_);
  sel.best = best_within_loss(*evaluated_, pricing_->test_accuracy,
                              config_.report_max_loss);
  if (sel.best) {
    sel.area_reduction = pricing_->cost.area_mm2 / sel.best->cost.area_mm2;
    sel.power_reduction = pricing_->cost.power_uw / sel.best->cost.power_uw;
  }
  selection_ = std::move(sel);
  report(FlowStage::kSelect, seconds_since(t0), /*reused=*/false,
         static_cast<long>(selection_->front.size()));
}

// ------------------------------------------------------------------ facade

const SplitArtifacts& FlowEngine::split() {
  stage_split();
  return *split_;
}

const mlp::FloatMlp& FlowEngine::float_net() {
  stage_backprop();
  return *float_net_;
}

const BaselinePricing& FlowEngine::baseline() {
  stage_baseline();
  return *pricing_;
}

BaselineArtifacts FlowEngine::assemble_baseline(bool move_out) {
  stage_baseline();
  BaselineArtifacts out;
  if (move_out) {
    out.train_raw = std::move(split_->train_raw);
    out.test_raw = std::move(split_->test_raw);
    out.train = std::move(split_->train);
    out.test = std::move(split_->test);
    out.float_net = std::move(*float_net_);
    out.baseline = std::move(pricing_->net);
  } else {
    out.train_raw = split_->train_raw;
    out.test_raw = split_->test_raw;
    out.train = split_->train;
    out.test = split_->test;
    out.float_net = *float_net_;
    out.baseline = pricing_->net;
  }
  out.baseline_cost = pricing_->cost;
  out.baseline_train_accuracy = pricing_->train_accuracy;
  out.baseline_test_accuracy = pricing_->test_accuracy;
  return out;
}

BaselineArtifacts FlowEngine::baseline_artifacts() & {
  return assemble_baseline(/*move_out=*/false);
}

BaselineArtifacts FlowEngine::baseline_artifacts() && {
  return assemble_baseline(/*move_out=*/true);
}

FlowResult FlowEngine::assemble(bool move_out) {
  stage_select();
  FlowResult result;
  if (move_out) {
    // The engine is a throwaway (rvalue): hand the artifacts over instead
    // of deep-copying datasets and models. The engine must not run again.
    result.training = std::move(*training_);
    result.evaluated = std::move(*evaluated_);
    result.front = std::move(selection_->front);
    result.best = std::move(selection_->best);
  } else {
    result.training = *training_;
    result.evaluated = *evaluated_;
    result.front = selection_->front;
    result.best = selection_->best;
  }
  // assemble_baseline last: the select stage above reads pricing_.
  result.baseline = assemble_baseline(move_out);
  result.backprop = backprop_report_;
  result.refine = refine_report_;
  result.area_reduction = selection_->area_reduction;
  result.power_reduction = selection_->power_reduction;
  result.stages = stages_;
  return result;
}

FlowResult FlowEngine::run() & { return assemble(/*move_out=*/false); }

FlowResult FlowEngine::run() && { return assemble(/*move_out=*/true); }

std::optional<FlowStage> FlowEngine::advance() {
  // Each stage_*() runs its missing upstream stages itself, so testing the
  // artifacts in pipeline order guarantees exactly one stage executes.
  if (!split_) {
    stage_split();
    return FlowStage::kSplit;
  }
  if (!float_net_) {
    stage_backprop();
    return FlowStage::kBackprop;
  }
  if (!pricing_) {
    stage_baseline();
    return FlowStage::kBaseline;
  }
  if (!training_) {
    stage_ga();
    return FlowStage::kGa;
  }
  if (config_.refine && !refined_) {
    stage_refine();
    return FlowStage::kRefine;
  }
  if (!evaluated_) {
    stage_hardware();
    return FlowStage::kHardware;
  }
  if (!selection_) {
    stage_select();
    return FlowStage::kSelect;
  }
  return std::nullopt;
}

// -------------------------------------------------------------- JSON report

void json_escape(const std::string& s, std::ostream& os) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

namespace {

void json_point(const HwEvaluatedPoint& p, std::ostream& os) {
  os << "{\"test_accuracy\":" << p.test_accuracy
     << ",\"fa_area\":" << p.fa_area
     << ",\"area_mm2\":" << p.cost.area_mm2
     << ",\"power_uw\":" << p.cost.power_uw
     << ",\"delay_us\":" << p.cost.critical_delay_us
     << ",\"cell_count\":" << p.cost.cell_count << ",\"functional_match\":"
     << (p.functional_match ? "true" : "false") << "}";
}

}  // namespace

void write_flow_report_json(const FlowResult& result,
                            const std::string& dataset_name,
                            const mlp::Topology& topology, std::ostream& os) {
  std::ostringstream body;
  body.precision(17);
  body << "{\"dataset\":";
  json_escape(dataset_name, body);
  body << ",\"topology\":[";
  for (std::size_t i = 0; i < topology.layers.size(); ++i) {
    body << (i ? "," : "") << topology.layers[i];
  }
  body << "],\"stages\":[";
  for (std::size_t i = 0; i < result.stages.size(); ++i) {
    const auto& s = result.stages[i];
    body << (i ? "," : "") << "{\"stage\":\"" << flow_stage_name(s.stage)
         << "\",\"wall_seconds\":" << s.wall_seconds
         << ",\"reused\":" << (s.reused ? "true" : "false")
         << ",\"items\":" << s.items << "}";
  }
  body << "],\"baseline\":{\"train_accuracy\":"
       << result.baseline.baseline_train_accuracy
       << ",\"test_accuracy\":" << result.baseline.baseline_test_accuracy
       << ",\"area_mm2\":" << result.baseline.baseline_cost.area_mm2
       << ",\"power_uw\":" << result.baseline.baseline_cost.power_uw
       << ",\"cell_count\":" << result.baseline.baseline_cost.cell_count
       << "}";
  body << ",\"training\":{\"evaluations\":" << result.training.evaluations
       << ",\"wall_seconds\":" << result.training.wall_seconds
       << ",\"evals_per_second\":" << result.training.evals_per_second
       << ",\"cache_hits\":" << result.training.cache_hits
       << ",\"cache_hit_rate\":" << result.training.cache_hit_rate
       << ",\"simd_isa\":\"" << result.training.simd_isa << "\""
       << ",\"eval_block\":" << result.training.eval_block
       << ",\"front_size\":" << result.training.estimated_pareto.size()
       << "}";
  body << ",\"backprop\":{\"train_samples_per_s\":"
       << result.backprop.samples_per_second
       << ",\"wall_seconds\":" << result.backprop.wall_seconds
       << ",\"epochs_run\":" << result.backprop.epochs_run
       << ",\"final_train_accuracy\":"
       << result.backprop.final_train_accuracy
       << ",\"final_loss\":" << result.backprop.final_loss
       << ",\"simd_isa\":\"" << result.backprop.simd_isa << "\""
       << ",\"block\":" << result.backprop.block
       << ",\"threads\":" << result.backprop.threads << "}";
  body << ",\"refine\":{\"points\":" << result.refine.points
       << ",\"trials\":" << result.refine.trials
       << ",\"early_aborts\":" << result.refine.early_aborts
       << ",\"early_abort_rate\":" << result.refine.early_abort_rate()
       << ",\"bits_cleared\":" << result.refine.bits_cleared
       << ",\"biases_simplified\":" << result.refine.biases_simplified
       << "}";
  body << ",\"evaluated\":[";
  for (std::size_t i = 0; i < result.evaluated.size(); ++i) {
    if (i) body << ",";
    json_point(result.evaluated[i], body);
  }
  body << "],\"front\":[";
  for (std::size_t i = 0; i < result.front.size(); ++i) {
    if (i) body << ",";
    json_point(result.front[i], body);
  }
  body << "],\"best\":";
  if (result.best) {
    json_point(*result.best, body);
  } else {
    body << "null";
  }
  body << ",\"area_reduction\":" << result.area_reduction
       << ",\"power_reduction\":" << result.power_reduction << "}";
  os << body.str() << '\n';
}

}  // namespace pmlp::core
