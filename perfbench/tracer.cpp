#include "tracer.hpp"

#include <cstdio>

namespace perfbench {

namespace {

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

int Tracer::begin(const char* name, std::uint64_t group) {
  if (!enabled_) return -1;
  spans_.push_back({name, group, open_, Clock::now(), {}});
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void Tracer::end(int span) {
  if (span < 0) return;
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.end = Clock::now();
  open_ = s.parent;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(seconds(s.end - s.start));
  return out;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += seconds(s.end - s.start);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += seconds(spans_[i].end - spans_[i].start) - child[i];
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"parent\": %d, \"id\": %llu}}\n",
                 i == 0 ? "" : ",", s.name,
                 seconds(s.start - origin_) * 1e6,
                 seconds(s.end - s.start) * 1e6, i, s.parent,
                 static_cast<unsigned long long>(s.group));
  }
  std::fputs("],\n\"selfSeconds\": {", f);
  bool first = true;
  for (const auto& [name, self] : self_seconds()) {
    std::fprintf(f, "%s\n  \"%s\": %.9f", first ? "" : ",", name.c_str(),
                 self);
    first = false;
  }
  std::fputs("\n}}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
