#include "pmlp/core/campaign.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "pmlp/core/thread_pool.hpp"
#include "pmlp/core/worker.hpp"

namespace pmlp::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

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

struct CampaignRunner::FlowState {
  /// The upstream artifacts a follower adopts from its leader.
  struct Upstream {
    SplitArtifacts split;
    mlp::FloatMlp float_net;
    BaselinePricing baseline;
  };

  CampaignFlowSpec spec;
  std::unique_ptr<FlowEngine> engine;
  CampaignFlowOutcome outcome;
  std::chrono::steady_clock::time_point started;
  bool started_once = false;
  std::size_t rolled_up = 0;  ///< engine stage reports already rolled up
  /// Leader only: parked flows with the same upstream key, add_flow order.
  std::vector<std::size_t> followers;
  /// Follower only: set by the leader on hand-over, adopted by the
  /// follower's first step.
  std::optional<Upstream> upstream;
};

struct CampaignRunner::Impl {
  std::unique_ptr<ThreadPool> pool;
  std::mutex mutex;
  std::condition_variable cv;
  std::atomic<bool> stop{false};
  int remaining = 0;  ///< flows not yet finished (any status)
  int done = 0;       ///< flows finished (any status)
  bool ran = false;
  CampaignResult result;  ///< rollups/counters accumulated under `mutex`
};

CampaignRunner::CampaignRunner(CampaignConfig cfg)
    : cfg_(std::move(cfg)), impl_(std::make_unique<Impl>()) {}

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
  for (const auto& f : flows_) {
    if (f->spec.name == spec.name) {
      throw std::invalid_argument("CampaignRunner: duplicate flow name '" +
                                  spec.name + "'");
    }
  }
  auto st = std::make_unique<FlowState>();
  st->outcome.name = spec.name;
  st->outcome.dataset = spec.dataset;
  st->outcome.topology = spec.topology;
  st->spec = std::move(spec);
  flows_.push_back(std::move(st));
  return flows_.size() - 1;
}

CampaignRunner& CampaignRunner::set_progress(CampaignCallback cb) {
  progress_ = std::move(cb);
  return *this;
}

void CampaignRunner::request_stop() { impl_->stop.store(true); }

void CampaignRunner::finish_flow(FlowState& st, CampaignFlowStatus status,
                                 const std::string& error) {
  st.outcome.status = status;
  st.outcome.error = error;
  st.outcome.wall_seconds =
      st.started_once ? seconds_since(st.started) : 0.0;
  // A leader that ends before its baseline (failed or stopped) releases its
  // followers without artifacts: they compute on their own, or end as
  // kPending on a stop. No parked flow outlives run().
  release_followers(st, /*adopt=*/false);
  st.engine.reset();  // free artifacts of failed/stopped flows eagerly
  st.upstream.reset();
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    switch (status) {
      case CampaignFlowStatus::kDone: ++impl_->result.completed; break;
      case CampaignFlowStatus::kFailed: ++impl_->result.failed; break;
      case CampaignFlowStatus::kStopped: ++impl_->result.stopped; break;
      case CampaignFlowStatus::kPending: ++impl_->result.pending; break;
    }
    ++impl_->done;
    --impl_->remaining;
  }
  impl_->cv.notify_all();
}

void CampaignRunner::release_followers(FlowState& leader, bool adopt) {
  while (!leader.followers.empty()) {
    const std::size_t f = leader.followers.front();
    if (adopt) {
      flows_[f]->upstream.emplace(FlowState::Upstream{
          leader.engine->split(), leader.engine->float_net(),
          leader.engine->baseline()});
    }
    leader.followers.erase(leader.followers.begin());
    impl_->pool->submit([this, f] { step(f); });
  }
}

void CampaignRunner::step(std::size_t index) {
  FlowState& st = *flows_[index];
  if (impl_->stop.load()) {
    // A flow none of whose stages ever ran is reported kPending (nothing
    // to resume), a partially-run one kStopped (checkpoint resumable).
    finish_flow(st,
                st.engine->stages().empty() ? CampaignFlowStatus::kPending
                                            : CampaignFlowStatus::kStopped,
                "");
    return;
  }
  if (!st.started_once) {
    st.started_once = true;
    st.started = std::chrono::steady_clock::now();
  }

  // Run exactly one pipeline stage, or adopt the leader's three upstream
  // stages. A throw (corrupt checkpoint, I/O error, bad artifact) fails
  // only this flow.
  std::optional<FlowStage> ran;
  try {
    if (st.upstream) {
      FlowState::Upstream up = std::move(*st.upstream);
      st.upstream.reset();
      st.engine->adopt_upstream(std::move(up.split), std::move(up.float_net),
                                std::move(up.baseline));
      ran = FlowStage::kBaseline;
    } else {
      ran = st.engine->advance();
    }
  } catch (const std::exception& e) {
    finish_flow(st, CampaignFlowStatus::kFailed, e.what());
    return;
  } catch (...) {
    finish_flow(st, CampaignFlowStatus::kFailed, "unknown error");
    return;
  }

  if (!ran) {
    // Every stage done: assemble (cheap — artifacts move out of the engine).
    try {
      st.outcome.result = std::move(*st.engine).run();
    } catch (const std::exception& e) {
      finish_flow(st, CampaignFlowStatus::kFailed, e.what());
      return;
    } catch (...) {
      finish_flow(st, CampaignFlowStatus::kFailed, "unknown error");
      return;
    }
    if (!cfg_.checkpoint_root.empty()) {
      // Terminal marker for the distributed-worker protocol (worker.hpp):
      // workers and `campaign status` treat a done.txt flow as finished.
      // Advisory only — a failure to write it never fails the flow.
      try {
        write_done_marker(
            (std::filesystem::path(cfg_.checkpoint_root) / st.outcome.name)
                .string(),
            "");
      } catch (const std::exception&) {
      }
    }
    finish_flow(st, CampaignFlowStatus::kDone, "");
    return;
  }

  // Roll the new stage reports (three after an adoption) into the campaign
  // aggregates, report progress (the callback is serialized under the
  // scheduler mutex), hand the upstream artifacts to the followers once the
  // baseline is done, and schedule the continuation: the flow's next stage
  // goes to the BACK of the shared FIFO queue — round-robin fairness across
  // flows at stage granularity. Everything here must stay inside the try: a
  // throw that escaped this pool task would be swallowed by its discarded
  // future, the flow would never finish and run() would wait forever.
  std::string error;
  try {
    {
      std::lock_guard<std::mutex> lock(impl_->mutex);
      const auto& reports = st.engine->stages();
      while (error.empty() && st.rolled_up < reports.size()) {
        const StageReport& rep = reports[st.rolled_up++];
        auto& roll = impl_->result.stages[static_cast<int>(rep.stage)];
        roll.wall_seconds += rep.wall_seconds;
        roll.items += rep.items;
        ++roll.executed;
        if (rep.reused) ++roll.reused;
        impl_->result.stage_wall_seconds += rep.wall_seconds;
        if (progress_) {
          const CampaignProgress p{index, st.spec.name, rep, impl_->done,
                                   static_cast<int>(flows_.size())};
          try {
            progress_(p);
          } catch (const std::exception& e) {
            error = std::string("progress callback: ") + e.what();
          } catch (...) {
            error = "progress callback: unknown error";
          }
        }
      }
    }
    if (error.empty()) {
      if (*ran == FlowStage::kBaseline) release_followers(st, /*adopt=*/true);
      impl_->pool->submit([this, index] { step(index); });
      return;  // continuation scheduled; this flow finishes later
    }
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
    error = "unknown error";
  }
  finish_flow(st, CampaignFlowStatus::kFailed, error);
}

CampaignResult CampaignRunner::run() {
  if (impl_->ran) {
    throw std::logic_error("CampaignRunner::run() is one-shot");
  }
  impl_->ran = true;
  const auto t0 = std::chrono::steady_clock::now();
  const int workers = resolve_n_threads(cfg_.n_threads);
  impl_->result.n_threads = workers;
  impl_->remaining = static_cast<int>(flows_.size());

  // Build every engine up front: flows share the campaign pool instead of
  // spawning their own (stages run serially inside a flow — bit-identical
  // to any other thread setting by the engines' determinism contract).
  for (auto& st : flows_) {
    FlowConfig cfg = st->spec.config;
    cfg.trainer.n_threads = 1;
    st->engine = std::make_unique<FlowEngine>(std::move(st->spec.data),
                                              st->spec.topology, cfg);
    if (!cfg_.checkpoint_root.empty()) {
      st->engine->set_checkpoint_dir(
          (std::filesystem::path(cfg_.checkpoint_root) / st->spec.name)
              .string());
    }
  }

  // Flows with one upstream key compute split, backprop and baseline once:
  // the first of each group in add_flow order leads and is submitted now;
  // the others park until the leader hands its artifacts over (step) or
  // ends without them (finish_flow).
  std::vector<std::size_t> leaders;
  std::unordered_map<std::uint64_t, std::size_t> leader_of;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const auto [it, first] =
        leader_of.emplace(flows_[i]->engine->upstream_fingerprint(), i);
    if (first) {
      leaders.push_back(i);
    } else {
      flows_[it->second]->followers.push_back(i);
    }
  }

  if (!flows_.empty()) {
    impl_->pool = std::make_unique<ThreadPool>(workers);
    for (std::size_t i : leaders) {
      impl_->pool->submit([this, i] { step(i); });
    }
    {
      std::unique_lock<std::mutex> lock(impl_->mutex);
      impl_->cv.wait(lock, [this] { return impl_->remaining == 0; });
    }
    impl_->pool.reset();  // joins the workers; the queue is already drained
  }

  CampaignResult out = std::move(impl_->result);
  out.wall_seconds = seconds_since(t0);
  out.flows.reserve(flows_.size());
  for (auto& st : flows_) {
    out.flows.push_back(std::move(st->outcome));
  }
  return out;
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
