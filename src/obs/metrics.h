#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace xdb {

/// \brief Monotonic counter. Increment is a relaxed atomic CAS loop —
/// callers may increment from morsel workers without coordination, and the
/// counter never feeds back into modelled results, so relaxed ordering is
/// sufficient.
class Counter {
 public:
  void Increment(double v = 1.0) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// \brief Last-written-wins gauge.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// \brief Fixed-bucket histogram: cumulative bucket counts over caller-
/// supplied upper bounds (an implicit +Inf bucket collects the rest), plus
/// observation count and sum — the Prometheus histogram shape.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double v);

  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Non-cumulative count of observations that fell into bucket `i`
  /// (`i == bounds.size()` is the overflow bucket).
  int64_t BucketCount(size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::vector<double> bounds_;  // ascending
  std::unique_ptr<std::atomic<int64_t>[]> counts_storage_;
  std::atomic<int64_t>* counts_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0};
};

/// \brief One rendered sample of the registry — the structured counterpart
/// of one ExposeText() line, consumed by the `xdb_stat.metrics` system
/// table. Histogram cells expand exactly like the exposition: one `bucket`
/// sample per bound (cumulative, `le=` rendered last in `labels`), then
/// `sum` and `count`.
struct MetricSample {
  std::string family;  // family name (no _bucket/_sum/_count suffix)
  std::string labels;  // canonical `{k="v",...}` rendering; "" if unlabeled
  std::string kind;    // "counter" | "gauge" | "bucket" | "sum" | "count"
  double value = 0;
};

/// \brief One dimension of a metric: `{server="db1"}`, `{link="db1->db3"}`.
///
/// Label sets are canonicalized (sorted by key, duplicate keys last-wins)
/// before they identify a cell, so `{a=1,b=2}` and `{b=2,a=1}` name the same
/// time series. Values may contain any bytes — exposition escapes them.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// \brief Process-wide registry of named metric families with text
/// exposition.
///
/// A family is one metric name holding one cell per label set (the empty
/// label set is the plain process-wide series — the PR-4 metrics). Lookup is
/// mutex-guarded and idempotent: the same name + canonicalized labels always
/// returns the same cell, and the returned pointers are stable for the
/// registry's lifetime, so hot paths resolve once and increment lock-free
/// thereafter.
///
/// `ExposeText()` renders everything in Prometheus text format and is
/// byte-for-byte deterministic for a given workload: families sort by name,
/// cells sort by canonicalized label set, label values and HELP text are
/// escaped per the exposition spec.
class MetricsRegistry {
 public:
  /// The process-wide default instance.
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  /// `upper_bounds` is only consulted on the family's first registration:
  /// every labeled cell of one histogram family shares one bucket layout.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds,
                          const std::string& help = "");

  /// Labeled variants: one cell per canonicalized label set.
  Counter* GetCounter(const std::string& name, const MetricLabels& labels,
                      const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const MetricLabels& labels,
                  const std::string& help = "");
  Histogram* GetHistogram(const std::string& name, const MetricLabels& labels,
                          std::vector<double> upper_bounds,
                          const std::string& help = "");

  /// Prometheus text exposition: HELP/TYPE per family + one sample line per
  /// cell, deterministic (name-sorted families, label-sorted cells, escaped
  /// label values and HELP).
  std::string ExposeText() const;

  /// Structured snapshot of every cell, in exactly ExposeText() order
  /// (name-sorted families; counters, then gauges, then histograms within a
  /// family; label-sorted cells; cumulative buckets before sum/count) — so
  /// the `xdb_stat.metrics` rows and the exposition always agree.
  std::vector<MetricSample> CollectSamples() const;

  /// Zeroes every registered cell (families and cells stay registered).
  void ResetAll();

  /// Escapes a label value for exposition: `\` -> `\\`, `"` -> `\"`,
  /// newline -> `\n` (the Prometheus text-format rules).
  static std::string EscapeLabelValue(const std::string& v);
  /// Escapes HELP text: `\` -> `\\`, newline -> `\n`.
  static std::string EscapeHelp(const std::string& v);
  /// Sorts by key; on duplicate keys the later entry wins.
  static MetricLabels Canonicalize(MetricLabels labels);

 private:
  struct Family {
    std::string help;
    std::vector<double> bounds;  // histogram families only
    std::map<MetricLabels, std::unique_ptr<Counter>> counters;
    std::map<MetricLabels, std::unique_ptr<Gauge>> gauges;
    std::map<MetricLabels, std::unique_ptr<Histogram>> histograms;
  };

  mutable std::mutex mu_;
  std::map<std::string, Family> entries_;
};

}  // namespace xdb
