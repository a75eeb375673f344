#include "pmlp/core/worker.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

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

namespace {

/// The lease-tree backend: the tree's markers decide what is finished, a
/// lease file what is taken.
class LeaseTree final : public ClaimSource {
 public:
  LeaseTree(const WorkerConfig& cfg, const std::vector<CampaignFlowSpec>& specs,
            std::vector<std::size_t> leader)
      : cfg_(cfg), specs_(specs), leader_(std::move(leader)),
        slots_(specs.size()) {
    fresh_engines = true;
    backoff_initial_s = cfg.backoff_initial_s;
    backoff_max_s = cfg.backoff_max_s;
    if (!fs::is_directory(cfg_.checkpoint_root)) {
      throw std::runtime_error("worker: checkpoint root '" +
                               cfg_.checkpoint_root + "' is not a directory");
    }
    beater_ = std::thread([this] { beat_loop(); });
  }

  ~LeaseTree() override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      exit_ = true;
    }
    beat_cv_.notify_all();
    beater_.join();
  }

  Take take(std::size_t i) override {
    if (terminal(i)) return Take::kEnded;
    if (waiting(i) || !acquire(i)) return Take::kBusy;
    if (terminal(i)) {  // finished between the check and the claim
      lease::release_claim(dir(i), cfg_.worker_id);
      return Take::kEnded;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    slots_[i].leased = true;
    slots_[i].lost = false;
    beat_now_ = true;  // the first beat right away
    beat_cv_.notify_all();
    return Take::kTaken;
  }

  CampaignFlowStatus release(std::size_t i, CampaignFlowStatus status,
                             const std::string& error) override {
    // Under mutex_, so no beat of this lease lands during or after it.
    std::lock_guard<std::mutex> lock(mutex_);
    slots_[i].leased = false;
    if (slots_[i].lost) return CampaignFlowStatus::kPending;  // not ours
    const std::string d = dir(i);
    auto out = CampaignFlowStatus::kPending;
    if (status == CampaignFlowStatus::kFailed) {
      FailureRecord rec = read_failures(d);
      ++rec.count;
      rec.error = error;
      commit_records(d, kFailuresFile, "pmlp-failures", [&](RecordWriter& w) {
        w.line("count", rec.count);
        w.text("error", rec.error);
      });
      if (rec.count >= cfg_.max_failures) {
        commit_records(d, kFailedFile, "pmlp-failed", [&](RecordWriter& w) {
          w.name("worker", cfg_.worker_id);
          w.text("error", rec.error);
        });
        out = CampaignFlowStatus::kFailed;
      }
    } else {
      if (status == CampaignFlowStatus::kDone) {
        write_done_marker(d, cfg_.worker_id);
        out = CampaignFlowStatus::kDone;
      }
      std::error_code ec;
      fs::remove(fs::path(d) / kFailuresFile, ec);
    }
    lease::release_claim(d, cfg_.worker_id);
    return out;
  }

  /// Every flow as the tree sees it, whoever finished it.
  void report(CampaignResult& result) const override {
    result.worker_id = cfg_.worker_id;
    result.claims = claims_;
    result.claim_conflicts = conflicts_;
    result.leases_stolen = stolen_;
    for (std::size_t i = 0; i < result.flows.size(); ++i) {
      auto& f = result.flows[i];
      if (has(i, kDoneFile)) {
        f.status = CampaignFlowStatus::kDone;
      } else if (has(i, kFailedFile)) {
        f.status = CampaignFlowStatus::kFailed;
        f.error = read_failures(dir(i)).error;
      }
    }
  }

 private:
  struct Slot {
    bool leased = false;  ///< held by a lane of this worker: beat it
    bool lost = false;    ///< the claim vanished or changed owner
    // Last observed (claim, beat) snapshot of a foreign lease and when
    // THIS worker first saw it (local monotonic clock).
    std::string claim_raw;
    std::string beat_raw;
    std::chrono::steady_clock::time_point first_seen;
    bool tracked = false;
  };

  std::string dir(std::size_t i) const {
    return (fs::path(cfg_.checkpoint_root) / specs_[i].name).string();
  }
  bool has(std::size_t i, const char* file) const {
    std::error_code ec;
    return fs::exists(fs::path(dir(i)) / file, ec);
  }
  bool terminal(std::size_t i) const {
    return has(i, kDoneFile) || has(i, kFailedFile);
  }
  /// A follower waits while neither it nor its leader has a baseline and
  /// the leader may still commit one.
  bool waiting(std::size_t i) const {
    const std::size_t j = leader_[i];
    const char* baseline = flow_stage_artifact(FlowStage::kBaseline);
    return j != i && !has(i, baseline) && !has(j, baseline) && !terminal(j);
  }

  bool acquire(std::size_t i);
  void beat_loop();

  const WorkerConfig& cfg_;
  const std::vector<CampaignFlowSpec>& specs_;
  const std::vector<std::size_t> leader_;
  /// Slots' lease flags and the beater, whose beat passes hold it; only
  /// take(), which the loop serializes, touches tracking and counters.
  std::mutex mutex_;
  std::condition_variable beat_cv_;
  std::vector<Slot> slots_;
  int claims_ = 0;
  int conflicts_ = 0;
  int stolen_ = 0;
  bool beat_now_ = false;
  bool exit_ = false;
  long beats_ = 0;  ///< beater thread only
  std::thread beater_;
};

/// Try to become the owner of flow `i`. Handles the contention path:
/// conflict accounting, same-host dead-owner fast path, snapshot-based
/// staleness and the atomic steal.
bool LeaseTree::acquire(std::size_t i) {
  const std::string d = dir(i);
  fs::create_directories(d);
  const std::string& id = cfg_.worker_id;
  Slot& t = slots_[i];
  if (lease::try_claim(d, id)) {
    ++claims_;
    t.tracked = false;
    return true;
  }
  ++conflicts_;
  const auto claim = lease::read_claim(d);
  if (!claim) return false;  // released between our open() and read: retry
  const std::string beat = lease::read_beat_raw(d);
  const auto now = std::chrono::steady_clock::now();
  const bool changed =
      !t.tracked || t.claim_raw != claim->raw || t.beat_raw != beat;
  if (changed) {
    t.claim_raw = claim->raw;
    t.beat_raw = beat;
    t.first_seen = now;
    t.tracked = true;
  }
  const bool dead = lease::claim_owner_dead_locally(*claim);
  const bool timed_out =
      std::chrono::duration<double>(now - t.first_seen).count() >=
      cfg_.lease_timeout_s;
  if (!dead && (changed || !timed_out)) return false;  // owner looks alive
  if (!lease::steal_claim(d, id)) return false;  // lost the steal race
  ++stolen_;
  t.tracked = false;
  if (lease::try_claim(d, id)) {
    ++claims_;
    return true;
  }
  return false;  // another worker claimed first; their lease, their flow
}

void LeaseTree::beat_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // The predicate keeps an exit or first-beat request made before this
    // thread started waiting from being lost for a whole heartbeat period.
    beat_cv_.wait_for(lock, std::chrono::duration<double>(cfg_.heartbeat_s),
                      [this] { return exit_ || beat_now_; });
    if (exit_) return;
    beat_now_ = false;
    // Fencing: re-read every claim each beat. If one vanished or names
    // someone else, that lease was stolen (we stalled past the timeout):
    // stop beating it and flag it, so its lane neither writes terminal
    // markers nor releases the NEW owner's claim.
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].leased || slots_[i].lost) continue;
      const auto claim = lease::read_claim(dir(i));
      if (!claim || claim->worker != cfg_.worker_id) {
        slots_[i].lost = true;
      } else if (!FaultInjector::instance().heartbeat_stalled()) {
        lease::write_beat(dir(i), cfg_.worker_id, ++beats_);
      }
    }
  }
}

}  // namespace

CampaignWorker::CampaignWorker(std::vector<CampaignFlowSpec> specs,
                               WorkerConfig cfg)
    : CampaignRunner(cfg), worker_(std::move(cfg)) {
  const WorkerConfig& c = worker_;
  if (c.checkpoint_root.empty()) {
    throw std::invalid_argument("CampaignWorker: checkpoint_root is empty");
  }
  // A heartbeat slower than half the lease timeout lets other workers steal
  // live leases; a zero backoff doubles to zero forever and busy-polls.
  if (!(c.heartbeat_s > 0 && c.heartbeat_s <= c.lease_timeout_s / 2 &&
        c.max_failures >= 1 && c.backoff_initial_s > 0)) {
    throw std::invalid_argument(
        "CampaignWorker: need 0 < heartbeat_s <= lease_timeout_s / 2, "
        "max_failures >= 1 and backoff_initial_s > 0");
  }
  if (worker_.worker_id.empty()) {
    std::random_device rd;
    char hex[16];
    std::snprintf(hex, sizeof hex, "%08x", rd());
    worker_.worker_id =
        host_name() + "-" + std::to_string(::getpid()) + "-" + hex;
  }
  for (auto& spec : specs) add_flow(std::move(spec));
}

std::unique_ptr<ClaimSource> CampaignWorker::make_source(
    const std::vector<CampaignFlowSpec>& specs,
    const std::vector<std::size_t>& leader) {
  return std::make_unique<LeaseTree>(worker_, specs, leader);
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

namespace {

/// A left-aligned table cell: `text` padded to `width`, with at least one
/// space after it so a value as wide as its column never runs into the
/// next one.
void pad_cell(std::ostream& os, const std::string& text, std::size_t width) {
  os << text
     << std::string(text.size() < width ? width - text.size() : 1, ' ');
}

}  // namespace

void write_campaign_status_table(const CampaignStatusReport& s,
                                 std::ostream& os) {
  // Column widths, each at least its header plus one separator.
  constexpr std::size_t kFlow = 21, kStages = 8, kNext = 10, kState = 10,
                        kOwner = 27;
  os << "campaign: " << s.flows.size() << " flows (NSGA-II "
     << s.manifest.population << "x" << s.manifest.generations << "), "
     << s.done << " done, " << s.failed << " failed, " << s.claimed
     << " claimed\n";
  os << "  ";
  pad_cell(os, "flow", kFlow);
  pad_cell(os, "stages", kStages);
  pad_cell(os, "next", kNext);
  pad_cell(os, "state", kState);
  pad_cell(os, "owner", kOwner);
  os << "beat-age  fails\n";
  for (const auto& f : s.flows) {
    os << "  ";
    pad_cell(os, f.name, kFlow);
    pad_cell(os,
             std::to_string(f.stages_done) + '/' +
                 std::to_string(f.stages_total),
             kStages);
    pad_cell(os, f.next_stage, kNext);
    pad_cell(os,
             f.failed            ? "FAILED"
             : f.done            ? "done"
             : !f.owner.empty()  ? "claimed"
                                 : "unclaimed",
             kState);
    pad_cell(os, f.owner.empty() ? "-" : f.owner, kOwner);
    if (f.heartbeat_age_s >= 0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%7.1fs", f.heartbeat_age_s);
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
