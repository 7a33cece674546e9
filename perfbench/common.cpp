#include <sched.h>
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common.hpp"
#include "kernels/isa.hpp"
#include "telemetry/jsonl.hpp"
#include "support/registry.hpp"

namespace perfbench {

namespace tel = spmm::names::tel;

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

// sysfs cache sizes read like "2048K" or "300M".
std::int64_t parse_size(const std::string& s) {
  if (s.empty()) return 0;
  std::int64_t v = std::atoll(s.c_str());
  switch (s.back()) {
    case 'K': v <<= 10; break;
    case 'M': v <<= 20; break;
    case 'G': v <<= 30; break;
    default: break;
  }
  return v;
}

std::string env_or_unset(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : std::string("unset");
}

std::string affinity_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "?";
  std::string out;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (!CPU_ISSET(i, &set)) continue;
    if (!out.empty()) out += ',';
    out += std::to_string(i);
  }
  return out;
}

}  // namespace

void Json::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"' + spmm::telemetry::json_escape(k) + "\": ";
}

Json& Json::num(const std::string& k, double value) {
  key(k);
  body_ += json_number(value);
  return *this;
}

Json& Json::integer(const std::string& k, std::int64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

Json& Json::str(const std::string& k, const std::string& value) {
  key(k);
  body_ += '"' + spmm::telemetry::json_escape(value) + '"';
  return *this;
}

Json& Json::boolean(const std::string& k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

Json& Json::obj(const std::string& k, const Json& value) {
  key(k);
  body_ += value.text();
  return *this;
}

Json& Json::arr(const std::string& k, const std::vector<Json>& values) {
  key(k);
  body_ += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ", ";
    body_ += values[i].text();
  }
  body_ += ']';
  return *this;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::atoll(line.c_str() + 6)) / 1024.0;
    }
  }
  return 0.0;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

CpuTicks read_cpu_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice"
  std::istringstream in(read_first_line("/proc/stat"));
  std::string label;
  in >> label;
  CpuTicks t;
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

CacheSizes cache_sizes() {
  CacheSizes out;
  int llc_level = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = read_first_line(dir + "level");
    if (level.empty()) continue;
    const std::string type = read_first_line(dir + "type");
    if (type == "Instruction") continue;
    const int lv = std::atoi(level.c_str());
    const std::int64_t size = parse_size(read_first_line(dir + "size"));
    if (lv == 2) out.l2 = size;
    if (lv >= llc_level) {
      llc_level = lv;
      out.llc = size;
    }
  }
  return out;
}

Json host_block() {
  std::string model = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const auto colon = line.find(':');
        if (colon != std::string::npos) model = line.substr(colon + 2);
        break;
      }
    }
  }
  const CacheSizes caches = cache_sizes();
  Json omp;
  for (const char* name : {"OMP_NUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES",
                           "OMP_WAIT_POLICY", "GOMP_SPINCOUNT"}) {
    omp.str(name, env_or_unset(name));
  }
  Json host;
  host.str("cpu_model", model)
      .integer("nproc", nproc())
      .str("affinity", affinity_list())
      .str("isa", std::string(spmm::isa_name(spmm::isa::resolve(spmm::Isa::kAuto))))
      .obj("omp_env", omp)
      .integer("l2_bytes", caches.l2)
      .integer("llc_bytes", caches.llc)
      .str("hw_backend", "none");
  return host;
}

spmm::telemetry::TraceSummary summarize(const std::vector<spmm::telemetry::Event>& events) {
  return spmm::telemetry::summarize_trace(events, SIZE_MAX);
}

double phase_total_ms(const spmm::telemetry::TraceSummary& summary,
                      std::string_view name) {
  for (const auto& phase : summary.phases) {
    if (phase.name == name) return static_cast<double>(phase.total_ns) / 1e6;
  }
  return 0.0;
}

double phase_mean_ms(const spmm::telemetry::TraceSummary& summary,
                     std::string_view name) {
  for (const auto& phase : summary.phases) {
    if (phase.name == name && phase.count > 0) {
      return static_cast<double>(phase.total_ns) / 1e6 /
             static_cast<double>(phase.count);
    }
  }
  return 0.0;
}

double harness_self_ms(const spmm::telemetry::TraceSummary& summary) {
  std::size_t runs = 0;
  for (const auto& phase : summary.phases) {
    if (phase.name == tel::kSpanRun) runs = phase.count;
  }
  if (runs == 0) return 0.0;
  const double self = phase_total_ms(summary, tel::kSpanRun) -
                      phase_total_ms(summary, tel::kSpanWarmup) -
                      phase_total_ms(summary, tel::kSpanIteration) -
                      phase_total_ms(summary, tel::kSpanVerify);
  return self / static_cast<double>(runs);
}

void add_convert_metrics(const spmm::telemetry::TraceSummary& summary,
                         std::map<std::string, double>& layer) {
  std::map<std::string, std::pair<double, int>> per_format;
  for (const auto& span : summary.slowest) {
    if (span.name != tel::kSpanFormat) continue;
    auto& [total, count] = per_format[span.detail];
    total += static_cast<double>(span.dur_ns) / 1e6;
    ++count;
  }
  for (const auto& [name, acc] : per_format) {
    if (name == "COO") continue;
    layer["formats." + name + ".convert_ms"] = acc.first / acc.second;
  }
}

}  // namespace perfbench
