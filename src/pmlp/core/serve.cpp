#include "pmlp/core/serve.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace pmlp::core {

namespace {

constexpr int kPollMs = 100;  ///< stop-flag poll period of the socket loops

/// Send all of `data`; false when the peer is gone.
bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t w =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (w <= 0) return false;
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

/// Parse the numeric argument of a "name=value" selector; nullopt when the
/// token is not that selector or the value does not parse exactly.
std::optional<double> selector_arg(const std::string& selector,
                                   const char* name) {
  const std::size_t n = std::strlen(name);
  if (selector.size() <= n + 1 || selector.compare(0, n, name) != 0 ||
      selector[n] != '=') {
    return std::nullopt;
  }
  const std::string value = selector.substr(n + 1);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

}  // namespace

// ------------------------------------------------------------------- Front

const FrontServer::Served* FrontServer::Front::resolve(
    const std::string& selector, std::string* error) const {
  if (const auto area = selector_arg(selector, "best-accuracy-under-area")) {
    const Served* best = nullptr;
    for (const auto& m : models) {
      if (m.entry.area_cm2 > *area) continue;
      // Ties on exact accuracy break toward the smaller design, then the
      // earlier index entry — deterministic because the index stores
      // max_digits10 values, never rounded ones.
      if (best == nullptr ||
          m.entry.test_accuracy > best->entry.test_accuracy ||
          (m.entry.test_accuracy == best->entry.test_accuracy &&
           m.entry.area_cm2 < best->entry.area_cm2)) {
        best = &m;
      }
    }
    if (best == nullptr) {
      *error = "no model with area_cm2 <= " + selector.substr(
                   std::strlen("best-accuracy-under-area") + 1);
    }
    return best;
  }
  if (const auto acc = selector_arg(selector, "best-area-over-accuracy")) {
    const Served* best = nullptr;
    for (const auto& m : models) {
      if (m.entry.test_accuracy < *acc) continue;
      if (best == nullptr || m.entry.area_cm2 < best->entry.area_cm2 ||
          (m.entry.area_cm2 == best->entry.area_cm2 &&
           m.entry.test_accuracy > best->entry.test_accuracy)) {
        best = &m;
      }
    }
    if (best == nullptr) {
      *error = "no model with test_accuracy >= " + selector.substr(
                   std::strlen("best-area-over-accuracy") + 1);
    }
    return best;
  }
  for (const auto& m : models) {
    if (m.entry.file == selector) return &m;
  }
  *error = "unknown model '" + selector + "'";
  return nullptr;
}

// ------------------------------------------------------------- FrontServer

std::shared_ptr<const FrontServer::Front> FrontServer::load(
    const std::string& dir) {
  auto entries = load_front_any(dir);
  auto front = std::make_shared<Front>();
  front->models.reserve(entries.size());
  for (auto& e : entries) {
    Served s;
    s.net = CompiledNet(e.model);
    s.entry = std::move(e);
    front->models.push_back(std::move(s));
  }
  return front;
}

FrontServer::FrontServer(std::string front_dir, ServeConfig cfg)
    : front_dir_(std::move(front_dir)),
      cfg_(cfg),
      pool_(cfg.n_threads),
      workspaces_(static_cast<std::size_t>(pool_.size())),
      front_(load(front_dir_)) {
  if (cfg_.max_batch < 1) {
    throw std::invalid_argument("ServeConfig::max_batch must be >= 1");
  }
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

FrontServer::~FrontServer() {
  request_stop();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    dispatcher_stop_ = true;
  }
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    conns.swap(connections_);
  }
  for (auto& t : conns) t.join();
}

std::shared_ptr<const FrontServer::Front> FrontServer::snapshot() const {
  std::lock_guard<std::mutex> lock(front_mutex_);
  return front_;
}

std::size_t FrontServer::reload() {
  auto fresh = load(front_dir_);  // throws -> old front keeps serving
  const std::size_t count = fresh->models.size();
  {
    std::lock_guard<std::mutex> lock(front_mutex_);
    front_ = std::move(fresh);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.reloads;
  }
  return count;
}

std::vector<ServedModelInfo> FrontServer::models() const {
  const auto front = snapshot();
  std::vector<ServedModelInfo> out;
  out.reserve(front->models.size());
  for (const auto& m : front->models) {
    out.push_back({m.entry.file, m.entry.test_accuracy, m.entry.area_cm2,
                   m.entry.power_mw});
  }
  return out;
}

ServeStats FrontServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

std::future<ServeReply> FrontServer::submit(std::string selector,
                                            std::vector<std::uint8_t> codes) {
  Pending p;
  p.selector = std::move(selector);
  p.codes = std::move(codes);
  auto fut = p.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.push_back(std::move(p));
  }
  queue_cv_.notify_one();
  return fut;
}

ServeReply FrontServer::classify(const std::string& selector,
                                 std::vector<std::uint8_t> codes) {
  return submit(selector, std::move(codes)).get();
}

void FrontServer::dispatch_loop() {
  std::vector<Pending> batch;
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return dispatcher_stop_ || !queue_.empty(); });
      if (queue_.empty() && dispatcher_stop_) return;
      // Drain the queue into one sample block: every request that arrived
      // while the previous batch was executing rides the next dispatch.
      const auto take = std::min<std::size_t>(
          queue_.size(), static_cast<std::size_t>(cfg_.max_batch));
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    run_batch(batch);
  }
}

void FrontServer::run_batch(std::vector<Pending>& batch) {
  // One snapshot for the whole batch: a reload() swapping the front while
  // this batch executes cannot mix generations within these answers.
  const auto front = snapshot();
  struct Slot {
    const Served* model = nullptr;
    bool grouped = false;
    ServeReply reply;
  };
  std::vector<Slot> slots(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto& slot = slots[i];
    std::string error;
    const Served* m = front->resolve(batch[i].selector, &error);
    if (m == nullptr) {
      slot.reply.error = std::move(error);
      continue;
    }
    const int n_inputs = m->net.n_inputs();
    if (static_cast<int>(batch[i].codes.size()) != n_inputs) {
      slot.reply.error = "expected " + std::to_string(n_inputs) +
                         " feature codes, got " +
                         std::to_string(batch[i].codes.size());
      continue;
    }
    const unsigned max_code =
        (1u << m->entry.model.bits().input_bits) - 1u;
    for (std::uint8_t c : batch[i].codes) {
      if (c > max_code) {
        slot.reply.error = "feature code " + std::to_string(c) +
                           " exceeds input range 0.." +
                           std::to_string(max_code);
        break;
      }
    }
    if (slot.reply.error.empty()) slot.model = m;
  }
  // Group the valid requests by resolved model (first-appearance order) and
  // gather each group's feature codes into one contiguous arena, so every
  // model classifies its whole share of the batch through predict_batch
  // sample blocks instead of request-at-a-time predict() calls.
  arena_.clear();
  batch_order_.clear();
  block_tasks_.clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (slots[i].model == nullptr || slots[i].grouped) continue;
    const Served* m = slots[i].model;
    const std::size_t group_first = batch_order_.size();
    const std::size_t group_arena = arena_.size();
    for (std::size_t j = i; j < batch.size(); ++j) {
      if (slots[j].model != m) continue;
      slots[j].grouped = true;
      batch_order_.push_back(j);
      arena_.insert(arena_.end(), batch[j].codes.begin(),
                    batch[j].codes.end());
    }
    const auto n_in = static_cast<std::size_t>(m->net.n_inputs());
    const std::size_t group_n = batch_order_.size() - group_first;
    for (std::size_t off = 0; off < group_n;
         off += CompiledNet::kBlockSamples) {
      const int count = static_cast<int>(std::min<std::size_t>(
          CompiledNet::kBlockSamples, group_n - off));
      block_tasks_.push_back(
          BlockTask{m, group_arena + off * n_in, group_first + off, count});
    }
  }
  if (batch_preds_.size() < batch_order_.size()) {
    batch_preds_.resize(batch_order_.size());
  }
  // Fan the sample blocks out over the pool; worker k reuses its own
  // workspace, so the eval path allocates nothing after warmup. A task is
  // already a whole block — chunking finer would leave nothing to amortize.
  parallel_for(
      &pool_, block_tasks_.size(),
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        EvalWorkspace& ws = workspaces_[chunk];
        for (std::size_t t = begin; t < end; ++t) {
          const BlockTask& task = block_tasks_[t];
          task.model->net.predict_batch(
              arena_.data() + task.arena,
              static_cast<std::size_t>(task.count),
              batch_preds_.data() + task.first, ws);
        }
      },
      /*min_per_chunk=*/1);
  for (std::size_t k = 0; k < batch_order_.size(); ++k) {
    slots[batch_order_[k]].reply.predicted = batch_preds_[k];
  }
  // Count the batch BEFORE fulfilling any promise: a client whose future
  // just resolved must never observe stats() missing its own request.
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.requests += static_cast<long>(batch.size());
    ++stats_.batches;
    stats_.max_batch =
        std::max(stats_.max_batch, static_cast<long>(batch.size()));
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto& reply = slots[i].reply;
    if (slots[i].model != nullptr) {
      reply.ok = true;
      reply.file = slots[i].model->entry.file;
    }
    batch[i].promise.set_value(std::move(reply));
  }
}

// ------------------------------------------------------------------ socket

void FrontServer::listen() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("serve: socket(): ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 64) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("serve: cannot listen on 127.0.0.1:" +
                             std::to_string(cfg_.port) + ": " + err);
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error(std::string("serve: getsockname(): ") + err);
  }
  listen_fd_ = fd;
  port_ = static_cast<int>(ntohs(addr.sin_port));
}

void FrontServer::serve_forever() {
  if (listen_fd_ < 0) {
    throw std::logic_error("serve_forever() requires listen() first");
  }
  while (!stopping_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks the stop flag
      break;
    }
    if (ready == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.connections;
    }
    std::lock_guard<std::mutex> lock(conn_mutex_);
    connections_.emplace_back([this, client] { handle_connection(client); });
  }
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    conns.swap(connections_);
  }
  for (auto& t : conns) t.join();
}

std::string FrontServer::handle_line(const std::string& line) {
  std::istringstream is(line);
  std::string selector;
  if (!(is >> selector)) return "err empty request";
  if (selector == "models") {
    const auto infos = models();
    std::ostringstream os;
    os << "ok models " << infos.size();
    for (const auto& m : infos) os << ' ' << m.file;
    return os.str();
  }
  if (selector == "reload") {
    try {
      return "ok reload " + std::to_string(reload());
    } catch (const std::exception& e) {
      return std::string("err reload failed: ") + e.what();
    }
  }
  std::vector<std::uint8_t> codes;
  std::string token;
  while (is >> token) {
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(token.c_str(), &end, 10);
    if (end != token.c_str() + token.size() || v < 0 || v > 255 ||
        errno == ERANGE) {
      return "err bad feature code '" + token + "'";
    }
    codes.push_back(static_cast<std::uint8_t>(v));
  }
  const ServeReply reply = classify(selector, std::move(codes));
  if (!reply.ok) return "err " + reply.error;
  return "ok " + reply.file + ' ' + std::to_string(reply.predicted);
}

void FrontServer::handle_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open && !stopping_.load()) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;  // peer closed (or error): drop the connection
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos = 0;
    std::size_t nl = 0;
    while (open && (nl = buffer.find('\n', pos)) != std::string::npos &&
           nl - pos <= kMaxLineBytes) {
      std::string line = buffer.substr(pos, nl - pos);
      pos = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      const bool stop = line == "stop";
      if (!send_all(fd, (stop ? "ok stop" : handle_line(line)) + '\n') ||
          stop) {
        open = false;
      }
      if (stop) request_stop();
    }
    buffer.erase(0, pos);
    // What is left starts with a line over the cap, ended or not: answer
    // once and drop the connection instead of buffering on.
    if (open && buffer.size() > kMaxLineBytes) {
      (void)send_all(fd, "err line too long\n");
      open = false;
    }
  }
  ::close(fd);
}

}  // namespace pmlp::core
