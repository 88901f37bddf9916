#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

namespace simbench {

double host_now() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration<double>(clock::now() - origin).count();
}

int Tracer::open(const std::string& name, double start) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start = start;
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::close(int id, double end) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = end;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::add_slice(double start, double end, std::int64_t sim_start_ps,
                       std::int64_t sim_end_ps, std::uint64_t events) {
  if (!enabled_) return;
  Span s;
  s.name = "sim.slice";
  s.start = start;
  s.end = end;
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  s.sim_start_ps = sim_start_ps;
  s.sim_end_ps = sim_end_ps;
  s.events = events;
  spans_.push_back(std::move(s));
}

bool Tracer::write_json(const std::string& path, const std::string& workload,
                        std::uint64_t seed) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,\"spans\":[",
               workload.c_str(), static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%d,\"run\":%d",
                 i == 0 ? "" : ",", i, s.name.c_str(), s.start, s.end,
                 s.parent, s.run);
    if (s.sim_start_ps >= 0) {
      std::fprintf(f, ",\"sim_start_ps\":%lld,\"sim_end_ps\":%lld,"
                      "\"events\":%llu",
                   static_cast<long long>(s.sim_start_ps),
                   static_cast<long long>(s.sim_end_ps),
                   static_cast<unsigned long long>(s.events));
    }
    std::fputc('}', f);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

Timed::Timed(Tracer& tracer, Phases& phases, const char* span,
             const char* phase)
    : tracer_(tracer), phases_(phases), phase_(phase), start_(host_now()) {
  id_ = tracer_.open(span, start_);
}

Timed::~Timed() {
  const double end = host_now();
  phases_[phase_] += end - start_;
  tracer_.close(id_, end);
}

SliceHook::SliceHook(Tracer& tracer, xgbe::sim::SimTime start,
                     xgbe::sim::SimTime interval,
                     std::function<std::uint64_t()> executed_events)
    : tracer_(tracer),
      interval_(interval),
      next_(start + interval),
      executed_events_(std::move(executed_events)),
      last_host_(host_now()),
      last_events_(executed_events_()) {}

void SliceHook::advance(xgbe::sim::SimTime at) {
  const double now = host_now();
  const std::uint64_t events = executed_events_();
  tracer_.add_slice(last_host_, now, at - interval_, at,
                    events - last_events_);
  last_host_ = now;
  last_events_ = events;
  next_ = at + interval_;
}

}  // namespace simbench
