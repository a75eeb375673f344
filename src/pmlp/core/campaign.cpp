#include "pmlp/core/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "pmlp/core/fault_injection.hpp"
#include "pmlp/core/worker.hpp"

namespace pmlp::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Flow {
  std::size_t leader = 0;
  bool published = false;  ///< its followers hold copies of its upstream
  std::optional<UpstreamArtifacts> handed;  ///< follower: from its leader
  std::unique_ptr<FlowEngine> engine;
  CampaignFlowOutcome outcome;
  std::optional<std::chrono::steady_clock::time_point> started;
  bool held = false;      ///< a lane is stepping it
  bool finished = false;  ///< this run left it done or failed
  unsigned rolled = 0;    ///< bit per FlowStage already in the rollups
};

}  // namespace

const char* campaign_flow_status_name(CampaignFlowStatus s) {
  switch (s) {
    case CampaignFlowStatus::kPending: return "pending";
    case CampaignFlowStatus::kDone: return "done";
    case CampaignFlowStatus::kFailed: return "failed";
    case CampaignFlowStatus::kStopped: return "stopped";
  }
  return "?";
}

struct CampaignRunner::Impl {
  CampaignConfig cfg;
  CampaignCallback progress;
  std::vector<CampaignFlowSpec> specs;
  std::vector<Flow> flows;
  std::atomic<bool> stop{false};
  bool ran = false;
  std::mutex mutex;  ///< guards what follows and the flows' flags
  std::condition_variable cv;  ///< `changes` moved
  std::size_t changes = 0;     ///< flows released or handed over so far
  std::size_t cursor = 0;      ///< where the next sweep starts
  std::mt19937 jitter{std::random_device{}()};
  int finished = 0;
  CampaignResult totals;
  std::exception_ptr error;  ///< first failure outside a step

  /// Block until a flow may take a step and mark it held; nullopt once
  /// none ever will again, or on stop.
  std::optional<std::size_t> claim(ClaimSource& source);
  void step(ClaimSource& source, std::size_t i);
  /// Flow `i`'s checkpoint directory; "" without a checkpoint_root.
  std::string flow_dir(std::size_t i) const {
    return cfg.checkpoint_root.empty()
               ? ""
               : (std::filesystem::path(cfg.checkpoint_root) / specs[i].name)
                     .string();
  }
};

CampaignRunner::CampaignRunner(CampaignConfig cfg)
    : impl_(std::make_unique<Impl>()) {
  impl_->cfg = std::move(cfg);
}

CampaignRunner::~CampaignRunner() = default;

std::size_t CampaignRunner::add_flow(CampaignFlowSpec spec) {
  if (impl_->ran) {
    throw std::logic_error("CampaignRunner: add_flow after run()");
  }
  if (spec.name.empty() || spec.name == "." || spec.name == ".." ||
      spec.name.find('/') != std::string::npos) {
    throw std::invalid_argument(
        "CampaignRunner: flow name must be a non-empty path component, got '" +
        spec.name + "'");
  }
  for (const auto& s : impl_->specs) {
    if (s.name == spec.name) {
      throw std::invalid_argument("CampaignRunner: duplicate flow name '" +
                                  spec.name + "'");
    }
  }
  impl_->specs.push_back(std::move(spec));
  return impl_->specs.size() - 1;
}

CampaignRunner& CampaignRunner::set_progress(CampaignCallback cb) {
  impl_->progress = std::move(cb);
  return *this;
}

void CampaignRunner::request_stop() { impl_->stop.store(true); }

std::unique_ptr<ClaimSource> CampaignRunner::make_source(
    const std::vector<CampaignFlowSpec>&, const std::vector<std::size_t>&) {
  return std::make_unique<ClaimSource>();
}

std::optional<std::size_t> CampaignRunner::Impl::claim(ClaimSource& source) {
  const std::size_t n = flows.size();
  std::unique_lock<std::mutex> lock(mutex);
  for (double backoff = source.backoff_initial_s; !stop.load();
       backoff = std::min(backoff * 2.0, source.backoff_max_s)) {
    bool active = false;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (cursor + k) % n;
      Flow& f = flows[i];
      if (f.finished) continue;
      // In memory a follower waits for its leader's hand-over or end; a
      // lease tree judges that from the leader's files in take().
      const Flow& lead = flows[f.leader];
      if (f.held || (!source.fresh_engines && f.leader != i &&
                     !lead.published && !lead.finished)) {
        active = true;
        continue;
      }
      const auto take = source.take(i);
      if (take == ClaimSource::Take::kEnded) continue;
      active = true;
      if (take == ClaimSource::Take::kBusy) continue;
      f.held = true;
      cursor = i + 1;
      return i;
    }
    if (!active) return std::nullopt;
    // Nothing claimable now: back off with jitter, so a fleet of idle
    // workers doesn't poll in lockstep. A release or hand-over in this
    // process wakes the sweep early.
    std::uniform_real_distribution<double> u(0.5, 1.5);
    const std::size_t before = changes;
    cv.wait_for(lock, std::chrono::duration<double>(backoff * u(jitter)),
                [&] { return changes != before || stop.load(); });
  }
  return std::nullopt;
}

void CampaignRunner::Impl::step(ClaimSource& source, std::size_t i) {
  Flow& f = flows[i];
  CampaignFlowSpec& spec = specs[i];
  if (!f.started) f.started = std::chrono::steady_clock::now();
  const std::string dir = flow_dir(i);

  // A throw (corrupt checkpoint, I/O error, bad artifact, progress
  // callback) fails only this flow.
  auto status = CampaignFlowStatus::kPending;
  std::string error;
  std::optional<FlowResult> result;
  try {
    if (!f.engine) {
      // Flows share the lanes instead of spawning pools of their own:
      // stages run serially inside a flow, bit-identical to any other
      // thread setting by the engines' determinism contract.
      FlowConfig flow_cfg = spec.config;
      flow_cfg.trainer.n_threads = 1;
      f.engine = std::make_unique<FlowEngine>(
          source.fresh_engines ? spec.data : std::move(spec.data),
          spec.topology, std::move(flow_cfg));
      f.engine->set_checkpoint_dir(dir);
    }
    FlowEngine& engine = *f.engine;
    std::size_t seen = engine.stages().size();
    // A follower's first step adopts its leader's upstream: handed over in
    // memory, or read from the leader's directory by a fresh engine that
    // finds no baseline of its own.
    std::optional<UpstreamArtifacts> up = std::exchange(f.handed, std::nullopt);
    if (source.fresh_engines && f.leader != i &&
        !std::filesystem::exists(std::filesystem::path(dir) /
                                 flow_stage_artifact(FlowStage::kBaseline))) {
      const CampaignFlowSpec& lead = specs[f.leader];
      up = FlowEngine(lead.data, lead.topology, lead.config)
               .read_upstream(flow_dir(f.leader));
    }
    for (;;) {
      std::optional<FlowStage> ran = FlowStage::kBaseline;  // adoption's
      if (up) {
        engine.adopt_upstream(*std::move(up));
        up.reset();
      } else {
        ran = engine.advance();
      }
      {
        // Fold the new reports into the rollups and the progress callback.
        std::lock_guard<std::mutex> lock(mutex);
        for (; seen < engine.stages().size(); ++seen) {
          const StageReport& rep = engine.stages()[seen];
          const unsigned bit = 1u << static_cast<int>(rep.stage);
          // A fresh engine reloads what earlier claims already reported.
          if (rep.reused && (f.rolled & bit)) continue;
          f.rolled |= bit;
          auto& roll = totals.stages[static_cast<int>(rep.stage)];
          roll.wall_seconds += rep.wall_seconds;
          roll.items += rep.items;
          ++roll.executed;
          if (rep.reused) ++roll.reused;
          totals.stage_wall_seconds += rep.wall_seconds;
          if (!progress) continue;
          try {
            progress(CampaignProgress{i, spec.name, rep, finished,
                                      static_cast<int>(flows.size())});
          } catch (const std::exception& e) {
            throw std::runtime_error(std::string("progress callback: ") +
                                     e.what());
          }
        }
      }
      if (!ran) {
        result = std::move(engine).run();  // cheap: artifacts move out
        status = CampaignFlowStatus::kDone;
        if (!source.fresh_engines && !dir.empty()) {
          // Terminal marker for the workers and `campaign status`.
          // Advisory only: failing to write it never fails the flow.
          try {
            write_done_marker(dir, "");
          } catch (const std::exception&) {
          }
        }
        break;
      }
      if (*ran == FlowStage::kBaseline && f.leader == i &&
          !source.fresh_engines) {
        // Hand each follower its own copy. They are not claimable before
        // `published` is set, so the copies need no lock.
        for (Flow& g : flows) {
          if (&g != &f && g.leader == i) {
            g.handed.emplace(UpstreamArtifacts{
                engine.split(), engine.float_net(), engine.baseline()});
          }
        }
        std::lock_guard<std::mutex> lock(mutex);
        f.published = true;
        ++changes;
        cv.notify_all();
      }
      if (!engine.stages().back().reused && *ran != FlowStage::kSelect) {
        // One stage computed and committed: the step ends. The injected
        // kill lands after the commit and before the release, so the
        // checkpoint keeps the work and a lease dies with the process.
        FaultInjector::instance().maybe_kill_at_stage(flow_stage_name(*ran));
        break;
      }
      if (stop.load()) break;
    }
  } catch (const std::exception& e) {
    status = CampaignFlowStatus::kFailed;
    error = e.what();
  } catch (...) {
    status = CampaignFlowStatus::kFailed;
    error = "unknown error";
  }
  if (status != CampaignFlowStatus::kPending || source.fresh_engines) {
    f.engine.reset();  // free the artifacts of an ended flow eagerly
  }
  const auto left = source.release(i, status, error);
  if (left != CampaignFlowStatus::kPending) {
    f.outcome.status = left;
    f.outcome.error = error;
    f.outcome.result = std::move(result);
    f.outcome.wall_seconds = seconds_since(*f.started);
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    f.held = false;
    f.finished = left != CampaignFlowStatus::kPending;
    if (f.finished) ++finished;
    ++changes;
  }
  cv.notify_all();
}

CampaignResult CampaignRunner::run() {
  Impl& im = *impl_;
  if (im.ran) {
    throw std::logic_error("CampaignRunner::run() is one-shot");
  }
  im.ran = true;
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = im.specs.size();
  CampaignResult& out = im.totals;
  out.n_threads = resolve_n_threads(im.cfg.n_threads);
  im.flows.resize(n);

  // Flows with one upstream key compute split, backprop and baseline once:
  // the first of each group in add_flow order leads it.
  std::vector<std::size_t> leader(n);
  std::unordered_map<std::uint64_t, std::size_t> leader_of;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = im.specs[i];
    leader[i] = leader_of
                    .emplace(upstream_fingerprint(s.data, s.topology, s.config),
                             i)
                    .first->second;
    im.flows[i].leader = leader[i];
  }

  const auto source = make_source(im.specs, leader);
  const auto lane = [&im, &source] {
    try {
      while (const auto i = im.claim(*source)) im.step(*source, *i);
    } catch (...) {
      // Steps contain their own failures, so only the claim source's I/O
      // gets here: stop every lane and let run() rethrow it.
      std::lock_guard<std::mutex> lock(im.mutex);
      if (!im.error) im.error = std::current_exception();
      im.stop.store(true);
    }
  };
  // The caller only waits: with a lane on the main thread, whose heap
  // glibc trims less eagerly, campaign-suite's peak RSS rose ~10%.
  std::vector<std::thread> lanes;
  for (std::size_t l = 0; l < std::min<std::size_t>(out.n_threads, n); ++l) {
    lanes.emplace_back(lane);
  }
  for (auto& t : lanes) t.join();
  if (im.error) std::rethrow_exception(im.error);

  for (std::size_t i = 0; i < n; ++i) {
    Flow& f = im.flows[i];
    CampaignFlowOutcome& o = f.outcome;
    if (!f.finished && f.started) {
      o.status = CampaignFlowStatus::kStopped;
      o.wall_seconds = seconds_since(*f.started);
    }
    o.name = im.specs[i].name;
    o.dataset = im.specs[i].dataset;
    o.topology = im.specs[i].topology;
    out.flows.push_back(std::move(o));
  }
  source->report(out);
  for (const auto& o : out.flows) {
    switch (o.status) {
      case CampaignFlowStatus::kDone: ++out.completed; break;
      case CampaignFlowStatus::kFailed: ++out.failed; break;
      case CampaignFlowStatus::kStopped: ++out.stopped; break;
      case CampaignFlowStatus::kPending: ++out.pending; break;
    }
  }
  out.wall_seconds = seconds_since(t0);
  return std::move(out);
}

// -------------------------------------------------------------- JSON report

void write_campaign_report_json(const CampaignResult& result,
                                std::ostream& os) {
  std::ostringstream body;
  body.precision(17);
  body << "{\"campaign\":{\"n_threads\":" << result.n_threads
       << ",\"flows_total\":" << result.flows.size()
       << ",\"completed\":" << result.completed
       << ",\"failed\":" << result.failed
       << ",\"stopped\":" << result.stopped
       << ",\"pending\":" << result.pending
       << ",\"wall_seconds\":" << result.wall_seconds
       << ",\"stage_wall_seconds\":" << result.stage_wall_seconds
       << ",\"flows_per_second\":" << result.flows_per_second();
  if (!result.worker_id.empty()) {
    body << ",\"worker\":{\"id\":";
    json_escape(result.worker_id, body);
    body << ",\"claims\":" << result.claims
         << ",\"claim_conflicts\":" << result.claim_conflicts
         << ",\"leases_stolen\":" << result.leases_stolen << "}";
  }
  body << ",\"stage_rollup\":{";
  bool first = true;
  for (int s = 0; s < kNumFlowStages; ++s) {
    const auto& roll = result.stages[s];
    if (roll.executed == 0) continue;
    if (!first) body << ",";
    first = false;
    body << "\"" << flow_stage_name(static_cast<FlowStage>(s))
         << "\":{\"wall_seconds\":" << roll.wall_seconds
         << ",\"items\":" << roll.items << ",\"executed\":" << roll.executed
         << ",\"reused\":" << roll.reused << "}";
  }
  body << "},\"flows\":[";
  for (std::size_t i = 0; i < result.flows.size(); ++i) {
    const auto& f = result.flows[i];
    if (i) body << ",";
    body << "{\"name\":";
    json_escape(f.name, body);
    body << ",\"dataset\":";
    json_escape(f.dataset, body);
    body << ",\"status\":\"" << campaign_flow_status_name(f.status)
         << "\",\"error\":";
    if (f.error.empty()) {
      body << "null";
    } else {
      json_escape(f.error, body);
    }
    body << ",\"wall_seconds\":" << f.wall_seconds << ",\"report\":";
    if (f.result) {
      std::ostringstream report;
      write_flow_report_json(*f.result, f.dataset, f.topology, report);
      std::string text = report.str();
      while (!text.empty() && text.back() == '\n') text.pop_back();
      body << text;
    } else {
      body << "null";
    }
    body << "}";
  }
  body << "]}}";
  os << body.str() << '\n';
}

}  // namespace pmlp::core
