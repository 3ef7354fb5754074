#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "common/rng.h"

namespace perfbench {

using privbasis::json::Value;

uint64_t QuerySeed(uint64_t workload_seed, uint64_t stream, uint64_t index) {
  uint64_t state = workload_seed;
  uint64_t mixed = privbasis::SplitMix64Next(&state);
  state = mixed ^ (stream * 0x9e3779b97f4a7c15ULL);
  mixed = privbasis::SplitMix64Next(&state);
  state = mixed ^ index;
  return privbasis::SplitMix64Next(&state);
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least q·n samples at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t idx =
      static_cast<size_t>(std::clamp(rank, 1.0,
                                     static_cast<double>(samples.size()))) -
      1;
  return samples[idx];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

Tail TailOf(const std::vector<double>& samples, double percentile) {
  Tail tail;
  tail.percentile = percentile;
  const size_t n = samples.size();
  if (n == 0) return tail;
  tail.value = Quantile(samples, percentile / 100.0);
  const double rank = std::ceil(percentile / 100.0 * static_cast<double>(n));
  const size_t r = static_cast<size_t>(std::max(rank, 1.0));
  tail.beyond = n > r ? n - r : 0;
  return tail;
}

namespace {

int BlockOf(double end_ms, double window_ms) {
  const double block_ms = window_ms / kWindowBlocks;
  return std::min(kWindowBlocks - 1,
                  static_cast<int>(std::max(0.0, end_ms) / block_ms));
}

}  // namespace

std::vector<std::vector<double>> SplitIntoBlocks(
    const std::vector<double>& samples, const std::vector<double>& end_ms,
    double window_ms) {
  std::vector<std::vector<double>> blocks(kWindowBlocks);
  for (size_t i = 0; i < samples.size(); ++i) {
    blocks[BlockOf(end_ms[i], window_ms)].push_back(samples[i]);
  }
  return blocks;
}

double MedianOfBlockMedians(const std::vector<std::vector<double>>& blocks) {
  std::vector<double> medians;
  for (const auto& block : blocks) {
    if (!block.empty()) medians.push_back(Median(block));
  }
  return Median(std::move(medians));
}

void HostSpeed::Sample(double end_ms) {
  constexpr int kSteps = 1 << 20;
  uint64_t x = 1;
  const auto start = Clock::now();
  for (int i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    asm volatile("" : "+r"(x));  // one dependent step per iteration
  }
  kernel_ms_.push_back(MsSince(start));
  end_ms_.push_back(end_ms);
}

std::vector<double> HostSpeed::BlockFactors(double window_ms) const {
  std::vector<double> factor(kWindowBlocks, Factor());
  const auto blocks = SplitIntoBlocks(kernel_ms_, end_ms_, window_ms);
  for (int b = 0; b < kWindowBlocks; ++b) {
    if (!blocks[b].empty()) factor[b] = kReferenceKernelMs / Median(blocks[b]);
  }
  return factor;
}

std::vector<double> HostSpeed::AtReference(const std::vector<double>& samples,
                                           const std::vector<double>& end_ms,
                                           double window_ms) const {
  const std::vector<double> factor = BlockFactors(window_ms);
  std::vector<double> scaled(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    scaled[i] = samples[i] * factor[BlockOf(end_ms[i], window_ms)];
  }
  return scaled;
}

double HostSpeed::MedianKernelMs() const { return Median(kernel_ms_); }

CpuTicks ReadCpuTicks() {
  // First line: "cpu  user nice system idle iowait irq softirq steal ...".
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(stat >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double StealShareSince(const CpuTicks& since) {
  const CpuTicks now = ReadCpuTicks();
  if (now.total <= since.total) return 0.0;
  return static_cast<double>(now.steal - since.steal) /
         static_cast<double>(now.total - since.total);
}

Value QuantileFact(const std::vector<double>& samples) {
  static constexpr std::pair<const char*, double> kQuantiles[] = {
      {"p50", 0.50}, {"p75", 0.75}, {"p90", 0.90}, {"p95", 0.95},
      {"p99", 0.99}};
  Value out;
  for (const auto& [name, q] : kQuantiles) out.Set(name, Quantile(samples, q));
  return out;
}

double SelfPeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double PeakRssMbOf(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  Value m;
  m.Set("value", value);
  m.Set("unit", unit);
  m.Set("samples", samples);
  metrics_.Set(name, std::move(m));
}

void Report::Fact(const std::string& key, Value value) {
  facts_.Set(key, std::move(value));
}

void Report::Op(const std::string& error) {
  ++attempted_;
  if (error.empty()) return;
  ++failed_;
  if (errors_.size() < 8) errors_.push_back(error);
}

void Report::Absorb(const Report& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const auto& e : other.errors_) {
    if (errors_.size() < 8) errors_.push_back(e);
  }
}

Value Report::ToJson() const {
  Value out;
  out.Set("correct", correct());
  out.Set("attempted", attempted_);
  out.Set("failed", failed_);
  Value::Array errors;
  for (const auto& e : errors_) errors.emplace_back(e);
  out.Set("errors", std::move(errors));
  out.Set("metrics", metrics_);
  out.Set("facts", facts_);
  return out;
}

std::string CheckRelease(const privbasis::Release& release, size_t k) {
  if (release.itemsets.size() > k) {
    return "released " + std::to_string(release.itemsets.size()) +
           " itemsets for k=" + std::to_string(k);
  }
  for (size_t i = 1; i < release.itemsets.size(); ++i) {
    if (release.itemsets[i].noisy_count >
        release.itemsets[i - 1].noisy_count) {
      return "itemsets not sorted by noisy count at rank " +
             std::to_string(i);
    }
  }
  // The committed spend is a sum of the per-step budget shares, so it may
  // land an ulp above the requested total; anything more is an overspend.
  if (!(release.epsilon_spent <=
        release.epsilon_requested * (1.0 + 1e-12))) {
    return "committed epsilon " + std::to_string(release.epsilon_spent) +
           " exceeds requested " + std::to_string(release.epsilon_requested);
  }
  return {};
}

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

std::string CompareReleases(const privbasis::Release& a,
                            const privbasis::Release& b) {
  if (a.itemsets.size() != b.itemsets.size()) return "itemset count";
  for (size_t i = 0; i < a.itemsets.size(); ++i) {
    if (!(a.itemsets[i].items == b.itemsets[i].items)) {
      return "itemset at rank " + std::to_string(i);
    }
    if (!SameBits(a.itemsets[i].noisy_count, b.itemsets[i].noisy_count)) {
      return "noisy count at rank " + std::to_string(i);
    }
  }
  if (a.lambda != b.lambda) return "lambda";
  if (a.lambda2 != b.lambda2) return "lambda2";
  if (a.basis_set.bases() != b.basis_set.bases()) return "basis set";
  if (!SameBits(a.epsilon_spent, b.epsilon_spent)) return "epsilon spent";
  return {};
}

}  // namespace perfbench
