#include "trace.hpp"

#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last (one tracer per process).
thread_local std::vector<int> t_open;

std::uint64_t this_thread_tag() {
  return static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::begin(std::string name) {
  if (!enabled_) return -1;
  SpanRec rec;
  rec.name = std::move(name);
  rec.parent = current();
  rec.tid = this_thread_tag();
  int id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<int>(spans_.size());
    rec.start = Clock::now();
    spans_.push_back(std::move(rec));
  }
  t_open.push_back(id);
  return id;
}

void Tracer::end(int id) {
  const auto now = Clock::now();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(static_cast<std::size_t>(id)).end = now;
  }
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

int Tracer::current() const { return t_open.empty() ? -1 : t_open.back(); }

void Tracer::record(std::string name, Clock::time_point start,
                    Clock::time_point end, int parent) {
  if (!enabled_) return;
  SpanRec rec{std::move(name), start, end, parent, this_thread_tag()};
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(rec));
}

std::map<std::string, Tracer::LayerTotals> Tracer::layers() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, LayerTotals> out;
  for (const auto& s : spans_) {
    auto& totals = out[s.name];
    totals.seconds += std::chrono::duration<double>(s.end - s.start).count();
    totals.count += 1;
  }
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace " + path);
  const std::lock_guard<std::mutex> lock(mutex_);
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    if (i > 0) os << ',';
    os << "\n{\"name\":";
    write_json_string(os, s.name);
    os << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << (s.tid % 1000000)
       << ",\"ts\":" << us(s.start) << ",\"dur\":" << us(s.end) - us(s.start)
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  if (!os) throw std::runtime_error("short write to trace " + path);
}

}  // namespace perfbench
