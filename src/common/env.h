// Environment-variable knobs for the bench harness (PRIVBASIS_SCALE,
// PRIVBASIS_REPEATS, ...). Centralized so every bench binary parses them
// identically.
#ifndef PRIVBASIS_COMMON_ENV_H_
#define PRIVBASIS_COMMON_ENV_H_

#include <cstdint>
#include <string>

namespace privbasis {

/// Value of environment variable `name` parsed as int64, or `fallback` if
/// unset/unparseable.
int64_t GetEnvInt(const std::string& name, int64_t fallback);

/// Value of environment variable `name` parsed as double, or `fallback`.
double GetEnvDouble(const std::string& name, double fallback);

/// Raw value of environment variable `name`, or `fallback`.
std::string GetEnvString(const std::string& name, const std::string& fallback);

/// Dataset size multiplier for bench runs: PRIVBASIS_SCALE, default 1.0
/// (paper-sized datasets). Clamped to [0.01, 10].
double BenchScale();

/// Experiment repetitions: PRIVBASIS_REPEATS, default 3 (as in the paper).
int BenchRepeats();

/// Counting-engine parallelism: PRIVBASIS_THREADS, default
/// hardware concurrency. Clamped to [1, 64].
int NumThreads();

/// VerticalIndex densification threshold: items with frequency ≥ this get
/// a dense bitmap tid-list. PRIVBASIS_BITMAP_DENSITY, default 1/64.
/// Values ≥ 1 disable bitmaps; ≤ 0 densifies every item.
double BitmapDensityThreshold();

// The kernel dispatch level ("avx2" | "scalar") is the PRIVBASIS_SIMD
// knob, resolved by common/simd.h (simd::ActiveLevel).

}  // namespace privbasis

#endif  // PRIVBASIS_COMMON_ENV_H_
