#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <utility>

namespace perfbench {

int Tracer::Begin(const char* name, const std::string& group,
                  Clock::time_point at) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, group, parent, Ns(at), -1});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id, Clock::time_point at) {
  spans_[static_cast<size_t>(id)].end_ns = Ns(at);
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%.3f, \"dur\": %.3f",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << buf
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"group\": \"" << s.group << "\"}}";
  }
  out << "\n]}\n";
  return out.good();
}

std::string Tracer::SelfTimeTable() const {
  std::vector<int64_t> self(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    self[i] += s.end_ns - s.start_ns;
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::pair<int64_t, size_t>> by_name;
  std::map<std::string, int64_t> by_layer;
  int64_t total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end_ns < 0) continue;
    const std::string name = spans_[i].name;
    auto& slot = by_name[name];
    slot.first += self[i];
    ++slot.second;
    by_layer[name.substr(0, name.find('.'))] += self[i];
    total += self[i];
  }
  std::vector<std::pair<int64_t, std::string>> layers;
  for (const auto& [layer, ns] : by_layer) layers.emplace_back(ns, layer);
  std::sort(layers.rbegin(), layers.rend());
  std::vector<std::pair<int64_t, std::string>> names;
  for (const auto& [name, v] : by_name) names.emplace_back(v.first, name);
  std::sort(names.rbegin(), names.rend());

  std::string out;
  char line[160];
  auto share = [total](int64_t ns) {
    return total > 0 ? 100.0 * static_cast<double>(ns) /
                           static_cast<double>(total)
                     : 0.0;
  };
  out += "layer            self_s   share\n";
  for (const auto& [ns, layer] : layers) {
    std::snprintf(line, sizeof(line), "%-14s %8.3f  %5.1f%%\n", layer.c_str(),
                  static_cast<double>(ns) / 1e9, share(ns));
    out += line;
  }
  out += "\nspan                          calls    self_s   share\n";
  for (const auto& [ns, name] : names) {
    std::snprintf(line, sizeof(line), "%-28s %6zu  %8.3f  %5.1f%%\n",
                  name.c_str(), by_name.at(name).second,
                  static_cast<double>(ns) / 1e9, share(ns));
    out += line;
  }
  return out;
}

}  // namespace perfbench
