#include "pmlp/core/worker.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "pmlp/core/fault_injection.hpp"
#include "pmlp/core/record.hpp"
#include "pmlp/core/serialize.hpp"

namespace pmlp::core {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestFile = "campaign.txt";
constexpr const char* kClaimFile = "claim.lock";
constexpr const char* kBeatFile = "beat.txt";
constexpr const char* kDoneFile = "done.txt";
constexpr const char* kFailedFile = "failed.txt";
constexpr const char* kFailuresFile = "failures.txt";

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string host_name() {
  char buf[256] = {0};
  if (::gethostname(buf, sizeof buf - 1) != 0) return "unknown-host";
  return buf;
}

/// Filesystem-safe worker-id fragment for temp/quarantine names.
std::string sanitize(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    if (!ok) c = '_';
  }
  return out;
}

std::string read_file_raw(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return "";
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// The bytes of one small `magic` record file; `body` writes the records
/// between the header and `end`.
template <typename Body>
std::string record_text(const char* magic, Body&& body) {
  std::ostringstream os;
  RecordWriter w(os, magic);
  w.header(magic);
  body(w);
  w.end();
  return os.str();
}

/// Commit `dir`/`file` through the same fsync+footer commit as stage
/// artifacts.
template <typename Body>
void commit_records(const std::string& dir, const char* file,
                    const char* magic, Body&& body) {
  const std::string text = record_text(magic, body);
  write_artifact_file((fs::path(dir) / file).string(),
                      [&](std::ostream& os) { os << text; });
}

/// failures.txt: consecutive failed-claim counter + last error.
struct FailureRecord {
  int count = 0;
  std::string error;
};

FailureRecord read_failures(const std::string& flow_dir) {
  const std::string path = (fs::path(flow_dir) / kFailuresFile).string();
  std::error_code ec;
  if (!fs::exists(path, ec)) return {};
  try {
    std::istringstream is(read_artifact_file(path));
    RecordReader r(is, path.c_str());
    r.header("pmlp-failures");
    FailureRecord rec;
    r.expect("count");
    rec.count = r.value<int>(0, std::numeric_limits<int>::max(), "bad count");
    r.expect("error");
    rec.error = r.rest();
    return rec;
  } catch (const std::exception&) {
    return {};  // damaged record: treat as zero failures
  }
}

}  // namespace

void write_done_marker(const std::string& flow_dir,
                       const std::string& worker_id) {
  commit_records(flow_dir, kDoneFile, "pmlp-done",
                 [&](RecordWriter& w) { w.name("worker", worker_id); });
}

// ---------------------------------------------------------------- manifest

void save_campaign_manifest(const CampaignManifest& m,
                            const std::string& root) {
  fs::create_directories(root);
  commit_records(root, kManifestFile, "pmlp-campaign", [&](RecordWriter& w) {
    w.line("population", m.population);
    w.line("generations", m.generations);
    w.line("ga_checkpoint", m.ga_checkpoint);
    w.line("flows", m.flows.size());
    for (const auto& f : m.flows) w.line("flow", f.name, f.dataset, f.seed);
  });
}

CampaignManifest load_campaign_manifest(const std::string& root) {
  const std::string path = (fs::path(root) / kManifestFile).string();
  if (!fs::exists(path)) {
    throw std::runtime_error(
        "no campaign manifest (campaign.txt) under '" + root +
        "' — start the tree with `pmlp campaign --checkpoint " + root + "`");
  }
  std::istringstream is(read_artifact_file(path));
  const std::string what = "malformed campaign manifest " + path;
  RecordReader r(is, what.c_str());
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  CampaignManifest m;
  r.header("pmlp-campaign");
  r.expect("population");
  m.population = r.value<int>(1, kMaxInt, "bad population");
  r.expect("generations");
  m.generations = r.value<int>(1, kMaxInt, "bad generations");
  r.expect("ga_checkpoint");
  m.ga_checkpoint = r.value<int>(0, kMaxInt, "bad ga_checkpoint");
  r.expect("flows");
  const auto count = r.value<std::size_t>(0, 1u << 20, "bad flow count");
  m.flows.reserve(count);
  r.records("flow", count, "flow count mismatch", [&] {
    CampaignManifestFlow f;
    f.name = r.value<std::string>("bad flow row");
    f.dataset = r.value<std::string>("bad flow row");
    f.seed = r.value<std::uint64_t>("bad flow row");
    for (const auto& prev : m.flows) {
      if (prev.name == f.name) r.fail("duplicate flow '" + f.name + "'");
    }
    m.flows.push_back(std::move(f));
  });
  return m;
}

// ------------------------------------------------------------------ leases

namespace lease {

bool try_claim(const std::string& flow_dir, const std::string& worker_id) {
  const std::string path = (fs::path(flow_dir) / kClaimFile).string();
  // O_EXCL is the arbiter: exactly one creator wins; everybody else gets
  // EEXIST. The claim is create-once — never rewritten — so a stalled
  // owner can never overwrite a thief's fresh claim with its own stale one.
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    if (errno == EEXIST) return false;
    throw std::runtime_error("cannot create claim " + path + ": " +
                             std::strerror(errno));
  }
  const std::string text = record_text("pmlp-claim", [&](RecordWriter& w) {
    w.line("worker", worker_id);
    w.line("host", host_name());
    w.line("pid", ::getpid());
  });
  const char* p = text.data();
  std::size_t left = text.size();
  bool ok = true;
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (ok) ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) {
    // Short-written claim: release it rather than hold a lock that other
    // workers cannot attribute (an unreadable claim still ages out via the
    // snapshot timeout, but there is no reason to leave one behind).
    ::unlink(path.c_str());
    throw std::runtime_error("cannot write claim " + path);
  }
  return true;
}

std::optional<ClaimInfo> read_claim(const std::string& flow_dir) {
  const std::string path = (fs::path(flow_dir) / kClaimFile).string();
  const std::string raw = read_file_raw(path);
  if (raw.empty()) return std::nullopt;
  ClaimInfo info;
  info.raw = raw;
  std::istringstream is(raw);
  RecordReader r(is, path.c_str());
  try {
    r.header("pmlp-claim");
    r.expect("worker");
    info.worker = r.value<std::string>("bad worker");
    r.expect("host");
    info.host = r.value<std::string>("bad host");
    r.expect("pid");
    info.pid = r.value<long>("bad pid");
  } catch (const std::invalid_argument&) {
    // Unparsable (e.g. torn by a crashed writer): still return the raw
    // snapshot — staleness judgment works on bytes, not fields.
    info.worker.clear();
    info.host.clear();
    info.pid = -1;
  }
  return info;
}

void write_beat(const std::string& flow_dir, const std::string& worker_id,
                long count) {
  const fs::path dir(flow_dir);
  const std::string tmp =
      (dir / (std::string(kBeatFile) + "." + sanitize(worker_id) + ".tmp"))
          .string();
  const std::string path = (dir / kBeatFile).string();
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return;  // heartbeat is best-effort; the lease just ages
    os << record_text("pmlp-beat", [&](RecordWriter& w) {
      w.line("worker", worker_id);
      w.line("count", count);
    });
    os.flush();
    if (!os) {
      os.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) fs::remove(tmp, ec);
}

std::string read_beat_raw(const std::string& flow_dir) {
  return read_file_raw((fs::path(flow_dir) / kBeatFile).string());
}

bool claim_owner_dead_locally(const ClaimInfo& claim) {
  if (claim.pid <= 0 || claim.host != host_name()) return false;
  if (::kill(static_cast<pid_t>(claim.pid), 0) == 0) return false;
  return errno == ESRCH;
}

bool steal_claim(const std::string& flow_dir, const std::string& thief_id) {
  // rename() is the arbiter: among racing thieves exactly one moves the
  // stale claim aside; the rest observe ENOENT. A per-thief destination
  // name keeps concurrent steals of DIFFERENT incarnations from colliding.
  static std::atomic<unsigned> nonce{0};
  const fs::path dir(flow_dir);
  const std::string src = (dir / kClaimFile).string();
  const std::string dst =
      (dir / (std::string(kClaimFile) + ".stale-" + sanitize(thief_id) + "-" +
              std::to_string(nonce.fetch_add(1))))
          .string();
  if (::rename(src.c_str(), dst.c_str()) != 0) return false;
  std::error_code ec;
  fs::remove(dst, ec);  // post-mortem value is low; drop it
  fs::remove((dir / kBeatFile).string(), ec);
  return true;
}

void release_claim(const std::string& flow_dir,
                   const std::string& worker_id) {
  const auto claim = read_claim(flow_dir);
  if (!claim || claim->worker != worker_id) return;  // stolen: not ours
  std::error_code ec;
  fs::remove((fs::path(flow_dir) / kBeatFile).string(), ec);
  fs::remove((fs::path(flow_dir) / kClaimFile).string(), ec);
}

}  // namespace lease

// ------------------------------------------------------------------ worker

struct CampaignWorker::Impl {
  std::vector<CampaignFlowSpec> specs;
  WorkerConfig cfg;
  std::string id;
  ProgressFn progress;
  WorkerReport report;

  std::atomic<bool> stop{false};

  // Heartbeat thread state: which flow directory to beat for ("" = none),
  // and whether the claim disappeared under us (fencing). `lease_gen`
  // increments on every begin/end so an in-flight beat iteration for a
  // PREVIOUS lease can never set lease_lost for the current one.
  std::thread beater;
  std::mutex beat_mutex;
  std::condition_variable beat_cv;
  std::string beat_dir;          // guarded by beat_mutex
  long lease_gen = 0;            // guarded by beat_mutex
  bool beater_exit = false;      // guarded by beat_mutex
  bool beat_now = false;         // guarded by beat_mutex: first beat due
  std::atomic<bool> lease_lost{false};
  long beat_count = 0;  ///< beater thread only

  // Per-flow staleness tracking: last observed (claim, beat) snapshot and
  // when THIS worker first saw it (local monotonic clock).
  struct StaleTrack {
    std::string claim_raw;
    std::string beat_raw;
    std::chrono::steady_clock::time_point first_seen;
    bool valid = false;
  };
  std::vector<StaleTrack> track;

  std::mt19937 jitter_rng{std::random_device{}()};

  void beater_loop();
  void begin_lease(const std::string& dir);
  void end_lease();
  bool acquire(std::size_t i, const std::string& dir);
  bool run_one_claim(std::size_t i, const std::string& dir);
};

CampaignWorker::CampaignWorker(std::vector<CampaignFlowSpec> specs,
                               WorkerConfig cfg)
    : impl_(std::make_unique<Impl>()) {
  impl_->specs = std::move(specs);
  impl_->cfg = std::move(cfg);
  if (impl_->cfg.checkpoint_root.empty()) {
    throw std::invalid_argument("CampaignWorker: checkpoint_root is empty");
  }
  if (impl_->cfg.lease_timeout_s <= 0 || impl_->cfg.heartbeat_s <= 0) {
    throw std::invalid_argument(
        "CampaignWorker: lease_timeout_s and heartbeat_s must be positive");
  }
  if (impl_->cfg.worker_id.empty()) {
    std::random_device rd;
    char hex[16];
    std::snprintf(hex, sizeof hex, "%08x", rd());
    impl_->cfg.worker_id =
        host_name() + "-" + std::to_string(::getpid()) + "-" + hex;
  }
  impl_->id = impl_->cfg.worker_id;
  impl_->report.worker_id = impl_->id;
  impl_->track.resize(impl_->specs.size());
}

CampaignWorker::~CampaignWorker() {
  if (impl_->beater.joinable()) {
    {
      std::lock_guard<std::mutex> lock(impl_->beat_mutex);
      impl_->beater_exit = true;
    }
    impl_->beat_cv.notify_all();
    impl_->beater.join();
  }
}

CampaignWorker& CampaignWorker::set_progress(ProgressFn cb) {
  impl_->progress = std::move(cb);
  return *this;
}

void CampaignWorker::request_stop() { impl_->stop.store(true); }

const std::string& CampaignWorker::worker_id() const { return impl_->id; }

void CampaignWorker::Impl::beater_loop() {
  std::unique_lock<std::mutex> lock(beat_mutex);
  for (;;) {
    // The predicate keeps an exit or first-beat request made before this
    // thread started waiting from being lost for a whole heartbeat period.
    beat_cv.wait_for(lock, std::chrono::duration<double>(cfg.heartbeat_s),
                     [this] { return beater_exit || beat_now; });
    if (beater_exit) return;
    beat_now = false;
    if (beat_dir.empty()) continue;
    const std::string dir = beat_dir;
    const long gen = lease_gen;
    lock.unlock();
    // Fencing: re-read the claim every beat. If it vanished or names
    // someone else, our lease was stolen (we stalled past the timeout).
    // Stop beating and raise the flag — the main loop must not write
    // terminal markers or release the NEW owner's claim.
    const auto claim = lease::read_claim(dir);
    const bool lost = !claim || claim->worker != id;
    if (!lost && !FaultInjector::instance().heartbeat_stalled()) {
      lease::write_beat(dir, id, ++beat_count);
    }
    lock.lock();
    if (lost && lease_gen == gen) lease_lost.store(true);
  }
}

void CampaignWorker::Impl::begin_lease(const std::string& dir) {
  {
    std::lock_guard<std::mutex> lock(beat_mutex);
    beat_dir = dir;
    ++lease_gen;
    lease_lost.store(false);
    beat_now = true;
  }
  // Wake the beater for the first beat right away; the fresh claim itself
  // already starts a fresh staleness snapshot for other workers.
  beat_cv.notify_all();
}

void CampaignWorker::Impl::end_lease() {
  std::lock_guard<std::mutex> lock(beat_mutex);
  beat_dir.clear();
  ++lease_gen;
}

/// Try to become the owner of flow `i`. Handles the contention path:
/// conflict accounting, same-host dead-owner fast path, snapshot-based
/// staleness and the atomic steal.
bool CampaignWorker::Impl::acquire(std::size_t i, const std::string& dir) {
  if (lease::try_claim(dir, id)) {
    ++report.claims;
    track[i].valid = false;
    return true;
  }
  ++report.claim_conflicts;
  const auto claim = lease::read_claim(dir);
  if (!claim) return false;  // released between our open() and read: retry
  const std::string beat = lease::read_beat_raw(dir);
  const auto now = std::chrono::steady_clock::now();
  auto& t = track[i];
  const bool changed =
      !t.valid || t.claim_raw != claim->raw || t.beat_raw != beat;
  if (changed) {
    t.claim_raw = claim->raw;
    t.beat_raw = beat;
    t.first_seen = now;
    t.valid = true;
  }
  const bool dead = lease::claim_owner_dead_locally(*claim);
  const bool timed_out =
      t.valid && std::chrono::duration<double>(now - t.first_seen).count() >=
                     cfg.lease_timeout_s;
  if (!dead && (changed || !timed_out)) return false;  // owner looks alive
  if (!lease::steal_claim(dir, id)) return false;  // lost the steal race
  ++report.leases_stolen;
  t.valid = false;
  if (lease::try_claim(dir, id)) {
    ++report.claims;
    return true;
  }
  return false;  // another worker claimed first; their lease, their flow
}

/// Holding the lease on flow `i`: run the pipeline forward by exactly one
/// computed stage (reloads of already-checkpointed stages ride along), or
/// finish the flow. Returns true when the tree advanced (stage computed,
/// marker written) — the sweep-level progress signal that resets backoff.
bool CampaignWorker::Impl::run_one_claim(std::size_t i,
                                         const std::string& dir) {
  begin_lease(dir);
  bool progressed = false;
  try {
    // Fresh engine per claim: state is reloaded from the tree, so this
    // worker composes with whatever other workers committed since its
    // last visit. Copies keep the spec reusable for later claims.
    const CampaignFlowSpec& spec = specs[i];
    FlowEngine engine(spec.data, spec.topology, spec.config);
    engine.set_checkpoint_dir(dir);
    std::optional<FlowStage> stage;
    for (;;) {
      stage = engine.advance();
      if (!stage) break;  // pipeline complete
      const StageReport& rep = engine.stages().back();
      if (rep.reused) {
        ++report.stages_reloaded;
      } else {
        ++report.stages_computed;
      }
      if (progress) progress(spec.name, rep);
      // kSelect is derived (never checkpointed): computing it is not a
      // commit boundary, keep going to the completion branch.
      if (!rep.reused && *stage != FlowStage::kSelect) {
        progressed = true;
        break;
      }
      if (stop.load()) break;
    }
    if (stage) {
      // One computed stage committed — the stage boundary. The injected
      // kill lands here, AFTER the commit and BEFORE the release: the
      // checkpoint tree keeps the work, the lease dies with the process.
      FaultInjector::instance().maybe_kill_at_stage(
          flow_stage_name(*stage));
    } else if (!lease_lost.load()) {
      write_done_marker(dir, id);
      ++report.flows_completed;
      progressed = true;
    }
    if (!lease_lost.load()) {
      std::error_code ec;
      fs::remove((fs::path(dir) / kFailuresFile).string(), ec);
    }
  } catch (const std::exception& e) {
    ++report.stage_failures;
    if (!lease_lost.load()) {
      FailureRecord rec = read_failures(dir);
      ++rec.count;
      rec.error = e.what();
      commit_records(dir, kFailuresFile, "pmlp-failures",
                     [&](RecordWriter& w) {
                       w.line("count", rec.count);
                       w.text("error", rec.error);
                     });
      if (rec.count >= cfg.max_failures) {
        commit_records(dir, kFailedFile, "pmlp-failed", [&](RecordWriter& w) {
          w.name("worker", id);
          w.text("error", rec.error);
        });
        ++report.flows_failed;
      }
      progressed = true;  // the failure record itself advanced the tree
    }
  }
  end_lease();
  if (!lease_lost.load()) {
    lease::release_claim(dir, id);
  }
  return progressed;
}

WorkerReport CampaignWorker::run() {
  Impl& im = *impl_;
  const auto t0 = std::chrono::steady_clock::now();
  if (!fs::is_directory(im.cfg.checkpoint_root)) {
    throw std::runtime_error("worker: checkpoint root '" +
                             im.cfg.checkpoint_root +
                             "' is not a directory");
  }
  im.beater = std::thread([&im] { im.beater_loop(); });

  double backoff = im.cfg.backoff_initial_s;
  while (!im.stop.load()) {
    bool any_active = false;
    bool progressed = false;
    for (std::size_t i = 0; i < im.specs.size() && !im.stop.load(); ++i) {
      const std::string dir =
          (fs::path(im.cfg.checkpoint_root) / im.specs[i].name).string();
      fs::create_directories(dir);
      std::error_code ec;
      if (fs::exists(fs::path(dir) / kDoneFile, ec) ||
          fs::exists(fs::path(dir) / kFailedFile, ec)) {
        continue;  // terminal
      }
      any_active = true;
      if (!im.acquire(i, dir)) continue;
      progressed = im.run_one_claim(i, dir) || progressed;
    }
    if (!any_active) break;  // tree fully drained
    if (!progressed && !im.stop.load()) {
      // Everything claimable is claimed by live owners: back off with
      // jitter so a fleet of idle workers doesn't poll in lockstep.
      std::uniform_real_distribution<double> u(0.5, 1.5);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(backoff * u(im.jitter_rng)));
      backoff = std::min(backoff * 2.0, im.cfg.backoff_max_s);
    } else {
      backoff = im.cfg.backoff_initial_s;
    }
  }

  {
    std::lock_guard<std::mutex> lock(im.beat_mutex);
    im.beater_exit = true;
  }
  im.beat_cv.notify_all();
  im.beater.join();
  im.report.wall_seconds = seconds_since(t0);
  return im.report;
}

// ------------------------------------------------------------------ status

CampaignStatusReport read_campaign_status(const std::string& root) {
  CampaignStatusReport out;
  out.manifest = load_campaign_manifest(root);
  constexpr FlowStage kCheckpointed[] = {
      FlowStage::kSplit,   FlowStage::kBackprop, FlowStage::kBaseline,
      FlowStage::kGa,      FlowStage::kRefine,   FlowStage::kHardware,
  };
  for (const auto& mf : out.manifest.flows) {
    FlowStatusRow row;
    row.name = mf.name;
    row.stages_total = static_cast<int>(std::size(kCheckpointed));
    const fs::path dir = fs::path(root) / mf.name;
    std::error_code ec;
    for (FlowStage s : kCheckpointed) {
      if (fs::exists(dir / flow_stage_artifact(s), ec)) {
        ++row.stages_done;
      } else if (row.next_stage.empty()) {
        row.next_stage = flow_stage_name(s);
      }
    }
    if (row.next_stage.empty()) row.next_stage = "-";
    row.done = fs::exists(dir / kDoneFile, ec);
    row.failed = fs::exists(dir / kFailedFile, ec);
    if (const auto claim = lease::read_claim(dir.string())) {
      row.owner = claim->worker.empty() ? "?" : claim->worker;
      // Heartbeat age = seconds since the newer of claim/beat changed,
      // by file mtime. Cross-host clock skew makes this approximate —
      // it is presentation, not the staleness arbiter (workers use their
      // own monotonic snapshots for that).
      auto newest = fs::last_write_time(dir / kClaimFile, ec);
      if (!ec) {
        const auto beat_time = fs::last_write_time(dir / kBeatFile, ec);
        if (!ec && beat_time > newest) newest = beat_time;
        ec.clear();
        row.heartbeat_age_s = std::chrono::duration<double>(
                                  fs::file_time_type::clock::now() - newest)
                                  .count();
      }
    }
    const FailureRecord rec = read_failures(dir.string());
    row.failures = rec.count;
    row.error = rec.error;
    if (row.done) ++out.done;
    if (row.failed) ++out.failed;
    if (!row.owner.empty()) ++out.claimed;
    out.flows.push_back(std::move(row));
  }
  return out;
}

void write_campaign_status_table(const CampaignStatusReport& s,
                                 std::ostream& os) {
  os << "campaign: " << s.flows.size() << " flows (NSGA-II "
     << s.manifest.population << "x" << s.manifest.generations << "), "
     << s.done << " done, " << s.failed << " failed, " << s.claimed
     << " claimed\n";
  os << "  flow                 stages  next      state     owner"
        "                      beat-age  fails\n";
  for (const auto& f : s.flows) {
    os << "  ";
    os.width(20);
    os.setf(std::ios::left);
    os << f.name;
    os.unsetf(std::ios::left);
    os << ' ' << f.stages_done << '/' << f.stages_total << "     ";
    os.width(9);
    os.setf(std::ios::left);
    os << f.next_stage;
    os.width(9);
    const char* state = f.failed   ? "FAILED"
                        : f.done   ? "done"
                        : !f.owner.empty() ? "claimed"
                                           : "unclaimed";
    os << state;
    os.width(26);
    os << (f.owner.empty() ? "-" : f.owner);
    os.unsetf(std::ios::left);
    if (f.heartbeat_age_s >= 0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%8.1fs", f.heartbeat_age_s);
      os << buf;
    } else {
      os << "       -";
    }
    os << "  " << f.failures;
    if (!f.error.empty()) os << "  (" << f.error << ")";
    os << '\n';
  }
}

void write_campaign_status_json(const CampaignStatusReport& s,
                                std::ostream& os) {
  std::ostringstream body;
  body.precision(17);
  body << "{\"campaign\":{\"population\":" << s.manifest.population
       << ",\"generations\":" << s.manifest.generations
       << ",\"ga_checkpoint\":" << s.manifest.ga_checkpoint
       << ",\"flows_total\":" << s.flows.size() << ",\"done\":" << s.done
       << ",\"failed\":" << s.failed << ",\"claimed\":" << s.claimed
       << ",\"flows\":[";
  for (std::size_t i = 0; i < s.flows.size(); ++i) {
    const auto& f = s.flows[i];
    if (i) body << ',';
    body << "{\"name\":";
    json_escape(f.name, body);
    body << ",\"stages_done\":" << f.stages_done
         << ",\"stages_total\":" << f.stages_total << ",\"next_stage\":";
    json_escape(f.next_stage, body);
    body << ",\"done\":" << (f.done ? "true" : "false")
         << ",\"failed\":" << (f.failed ? "true" : "false") << ",\"owner\":";
    if (f.owner.empty()) {
      body << "null";
    } else {
      json_escape(f.owner, body);
    }
    body << ",\"heartbeat_age_s\":";
    if (f.heartbeat_age_s >= 0) {
      body << f.heartbeat_age_s;
    } else {
      body << "null";
    }
    body << ",\"failures\":" << f.failures << ",\"error\":";
    if (f.error.empty()) {
      body << "null";
    } else {
      json_escape(f.error, body);
    }
    body << "}";
  }
  body << "]}}";
  os << body.str() << '\n';
}

}  // namespace pmlp::core
