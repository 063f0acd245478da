// Property tests of the sort-free planning reads: BandwidthLog::sort() (a
// stable LSD radix ordering), extract_all_series / extract_series (flat
// per-pair grouping) and DemandMatrix::from_log, each checked bit for bit
// against a local copy of the comparison-sort / std::map implementation it
// replaced, on randomized logs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "te/demand.h"
#include "telemetry/bandwidth_log.h"
#include "telemetry/forecast.h"
#include "util/stats.h"

namespace smn::telemetry {
namespace {

// ---------------------------------------------------------------------------
// Reference implementations (the pre-radix code, kept here verbatim in
// behavior).

std::unordered_map<util::PairId, std::uint32_t> reference_ranks(
    std::span<const util::PairId> pairs) {
  std::vector<util::PairId> unique(pairs.begin(), pairs.end());
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  const util::IdSpace& ids = util::IdSpace::global();
  std::sort(unique.begin(), unique.end(),
            [&](util::PairId a, util::PairId b) { return ids.pair_name_less(a, b); });
  std::unordered_map<util::PairId, std::uint32_t> rank;
  for (std::uint32_t i = 0; i < unique.size(); ++i) rank.emplace(unique[i], i);
  return rank;
}

BandwidthLog reference_sorted(const BandwidthLog& log) {
  const auto ts = log.timestamps();
  const auto pairs = log.pair_ids();
  const auto bw = log.bandwidths();
  const auto rank = reference_ranks(pairs);
  std::vector<std::uint32_t> order(log.record_count());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (ts[a] != ts[b]) return ts[a] < ts[b];
    return rank.at(pairs[a]) < rank.at(pairs[b]);
  });
  BandwidthLog out;
  for (const std::uint32_t i : order) out.append(ts[i], pairs[i], bw[i]);
  return out;
}

Series reference_densify(const std::map<util::SimTime, double>& points, util::SimTime epoch) {
  Series series;
  series.epoch = epoch;
  if (points.empty()) return series;
  series.start = points.begin()->first;
  const util::SimTime last = points.rbegin()->first;
  const auto n = static_cast<std::size_t>((last - series.start) / epoch) + 1;
  series.values.assign(n, std::numeric_limits<double>::quiet_NaN());
  for (const auto& [t, v] : points) {
    const auto idx = static_cast<std::size_t>((t - series.start) / epoch);
    if (idx < n) series.values[idx] = v;
  }
  std::size_t prev_known = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(series.values[i])) continue;
    if (i > prev_known + 1 && !std::isnan(series.values[prev_known])) {
      const double lo = series.values[prev_known];
      const double hi = series.values[i];
      for (std::size_t j = prev_known + 1; j < i; ++j) {
        const double frac = static_cast<double>(j - prev_known) /
                            static_cast<double>(i - prev_known);
        series.values[j] = lo + frac * (hi - lo);
      }
    }
    prev_known = i;
  }
  double last_known = 0.0;
  bool seen = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isnan(series.values[i])) {
      if (!seen) {
        for (std::size_t j = 0; j < i; ++j) series.values[j] = series.values[i];
      }
      last_known = series.values[i];
      seen = true;
    } else if (seen) {
      series.values[i] = last_known;
    }
  }
  return series;
}

std::vector<std::pair<util::PairId, Series>> reference_all_series(const BandwidthLog& log,
                                                                  util::SimTime epoch) {
  std::map<util::PairId, std::map<util::SimTime, double>> grouped;
  const auto ts = log.timestamps();
  const auto pairs = log.pair_ids();
  const auto bw = log.bandwidths();
  for (std::size_t i = 0; i < log.record_count(); ++i) grouped[pairs[i]][ts[i]] = bw[i];
  std::vector<std::pair<util::PairId, Series>> out;
  for (const auto& [pair, points] : grouped) {
    out.emplace_back(pair, reference_densify(points, epoch));
  }
  return out;
}

te::DemandMatrix reference_from_log(const BandwidthLog& log, te::DemandStatistic stat) {
  std::unordered_map<util::PairId, std::vector<double>> series;
  const auto pairs = log.pair_ids();
  const auto bw = log.bandwidths();
  for (std::size_t i = 0; i < log.record_count(); ++i) series[pairs[i]].push_back(bw[i]);
  std::vector<util::PairId> keys;
  for (const auto& [pair, _] : series) keys.push_back(pair);
  const util::IdSpace& ids = util::IdSpace::global();
  std::sort(keys.begin(), keys.end(),
            [&](util::PairId a, util::PairId b) { return ids.pair_name_less(a, b); });
  te::DemandMatrix matrix;
  for (const util::PairId pair : keys) {
    const util::Summary s = util::summarize(series.at(pair));
    double value = s.mean;
    if (stat == te::DemandStatistic::kP95) value = s.p95;
    if (stat == te::DemandStatistic::kMax) value = s.max;
    matrix.add(te::DemandEntry{ids.src_name(pair), ids.dst_name(pair), value, pair});
  }
  return matrix;
}

te::DemandMatrix reference_from_forecast(const BandwidthLog& log, std::size_t horizon,
                                         ForecastMethod method, const ForecastOptions& options) {
  const auto all = reference_all_series(log, util::kTelemetryEpoch);
  std::map<util::PairId, const Series*> series_of;
  std::vector<util::PairId> keys;
  for (const auto& [pair, series] : all) {
    keys.push_back(pair);
    series_of.emplace(pair, &series);
  }
  const util::IdSpace& ids = util::IdSpace::global();
  std::sort(keys.begin(), keys.end(),
            [&](util::PairId a, util::PairId b) { return ids.pair_name_less(a, b); });
  te::DemandMatrix matrix;
  for (const util::PairId pair : keys) {
    const Series& series = *series_of.at(pair);
    if (series.values.empty()) continue;
    const std::vector<double> predicted = forecast(series, horizon, method, options);
    double mean = 0.0;
    for (const double v : predicted) mean += v;
    mean /= static_cast<double>(predicted.size());
    matrix.add(te::DemandEntry{ids.src_name(pair), ids.dst_name(pair), std::max(mean, 0.0), pair});
  }
  return matrix;
}

// ---------------------------------------------------------------------------
// Helpers.

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_log(const BandwidthLog& got, const BandwidthLog& want) {
  ASSERT_EQ(got.record_count(), want.record_count());
  for (std::size_t i = 0; i < got.record_count(); ++i) {
    ASSERT_EQ(got.timestamps()[i], want.timestamps()[i]) << "row " << i;
    ASSERT_EQ(got.pair_ids()[i], want.pair_ids()[i]) << "row " << i;
    ASSERT_EQ(bits(got.bandwidths()[i]), bits(want.bandwidths()[i])) << "row " << i;
  }
}

void expect_same_matrix(const te::DemandMatrix& got, const te::DemandMatrix& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    const te::DemandEntry& g = got.entries()[k];
    const te::DemandEntry& w = want.entries()[k];
    EXPECT_EQ(g.pair, w.pair);
    EXPECT_EQ(g.src, w.src);
    EXPECT_EQ(g.dst, w.dst);
    EXPECT_EQ(bits(g.gbps), bits(w.gbps));
  }
}

void expect_same_series(const Series& got, const Series& want) {
  EXPECT_EQ(got.start, want.start);
  EXPECT_EQ(got.epoch, want.epoch);
  ASSERT_EQ(got.values.size(), want.values.size());
  for (std::size_t i = 0; i < got.values.size(); ++i) {
    ASSERT_EQ(bits(got.values[i]), bits(want.values[i])) << "epoch " << i;
  }
}

/// Interns `count` fresh pairs in an order that differs from their name
/// order (dst names descend with the id, src names cycle), so any path that
/// orders by id instead of by name fails.
std::vector<util::PairId> reversed_pairs(const std::string& tag, std::size_t count) {
  util::IdSpace& ids = util::IdSpace::global();
  std::vector<util::PairId> out;
  for (std::size_t k = count; k-- > 0;) {
    const std::string src = tag + "-s" + std::to_string(1000 + k % 17);
    const std::string dst = tag + "-d" + std::to_string(1000 + k);
    out.push_back(ids.pair_of_names(src, dst));
  }
  return out;
}

struct LogShape {
  std::size_t rows = 0;
  std::size_t pairs = 0;
  util::SimTime t0 = 0;
  util::SimTime step = util::kMinute;
  std::size_t distinct_times = 1;
};

/// Unsorted log: timestamps drawn from `distinct_times` grid points, pairs
/// drawn with replacement, so equal (ts, pair) keys recur with distinct
/// bandwidths.
BandwidthLog random_log(std::mt19937_64& rng, const std::vector<util::PairId>& pool,
                        const LogShape& shape) {
  BandwidthLog log;
  for (std::size_t i = 0; i < shape.rows; ++i) {
    const util::SimTime t =
        shape.t0 + static_cast<util::SimTime>(rng() % shape.distinct_times) * shape.step;
    const util::PairId pair = pool[rng() % shape.pairs];
    log.append(t, pair, static_cast<double>(i) + 0.25);
  }
  return log;
}

// ---------------------------------------------------------------------------
// BandwidthLog::sort().

TEST(RadixSortProperty, MatchesStableSortOnRandomLogs) {
  const auto pool = reversed_pairs("rsort", 700);
  std::mt19937_64 rng(20251019);
  for (int round = 0; round < 60; ++round) {
    LogShape shape;
    shape.rows = 1 + rng() % 4000;
    // Up to 700 pairs: past 256 ranks the rank key needs two digits.
    shape.pairs = 1 + rng() % pool.size();
    shape.distinct_times = 1 + rng() % 300;
    shape.t0 = static_cast<util::SimTime>(rng() % 100000) - 50000;
    shape.step = static_cast<util::SimTime>(1 + rng() % 3600);
    BandwidthLog log = random_log(rng, pool, shape);
    const BandwidthLog want = reference_sorted(log);
    log.sort();
    expect_same_log(log, want);
  }
}

TEST(RadixSortProperty, ManyPairsSpanSeveralRankDigits) {
  // More distinct pairs than one radix digit can rank.
  const auto pool = reversed_pairs("rmany", 5000);
  std::mt19937_64 rng(11);
  for (int round = 0; round < 3; ++round) {
    LogShape shape{12000, pool.size(), 0, util::kTelemetryEpoch, 1 + rng() % 20};
    BandwidthLog log = random_log(rng, pool, shape);
    const BandwidthLog want = reference_sorted(log);
    log.sort();
    expect_same_log(log, want);
  }
}

TEST(RadixSortProperty, DuplicateKeysKeepEmitOrder) {
  const auto pool = reversed_pairs("rdup", 3);
  BandwidthLog log;
  // Same (ts, pair) four times with distinct bandwidths, interleaved with
  // rows that sort before and after it.
  for (int i = 0; i < 4; ++i) {
    log.append(60, pool[1], 10.0 + i);
    log.append(60, pool[0], 20.0 + i);
    log.append(0, pool[2], 30.0 + i);
  }
  const BandwidthLog want = reference_sorted(log);
  log.sort();
  expect_same_log(log, want);
  // pool[1]'s four rows at t = 60 tie on (ts, pair) and keep their order.
  std::vector<double> tied;
  for (std::size_t i = 0; i < log.record_count(); ++i) {
    if (log.timestamps()[i] == 60 && log.pair_ids()[i] == pool[1]) {
      tied.push_back(log.bandwidths()[i]);
    }
  }
  EXPECT_EQ(tied, (std::vector<double>{10.0, 11.0, 12.0, 13.0}));
}

TEST(RadixSortProperty, TimeSpanWiderThan32Bits) {
  const auto pool = reversed_pairs("rwide", 40);
  std::mt19937_64 rng(7);
  BandwidthLog log;
  const util::SimTime far = util::SimTime{1} << 40;
  for (int i = 0; i < 3000; ++i) {
    const auto t = static_cast<util::SimTime>(rng() % (2 * far)) - far;
    log.append(t - t % 7, pool[rng() % pool.size()], static_cast<double>(i));
  }
  // The full int64 range: the time key needs all eight digits.
  log.append(std::numeric_limits<util::SimTime>::max(), pool[0], -1.0);
  log.append(std::numeric_limits<util::SimTime>::min(), pool[1], -2.0);
  log.append(std::numeric_limits<util::SimTime>::min(), pool[0], -3.0);
  const BandwidthLog want = reference_sorted(log);
  log.sort();
  expect_same_log(log, want);
  EXPECT_EQ(log.timestamps().front(), std::numeric_limits<util::SimTime>::min());
  EXPECT_EQ(log.timestamps().back(), std::numeric_limits<util::SimTime>::max());
}

TEST(RadixSortProperty, SortedInputIsUnchanged) {
  const auto pool = reversed_pairs("rsorted", 50);
  std::mt19937_64 rng(3);
  LogShape shape{5000, 50, 0, util::kMinute, 100};
  BandwidthLog log = reference_sorted(random_log(rng, pool, shape));
  const BandwidthLog want = log;
  log.sort();
  expect_same_log(log, want);
}

TEST(RadixSortProperty, EmptyAndSingleRowLogs) {
  BandwidthLog empty;
  empty.sort();
  EXPECT_TRUE(empty.empty());

  const auto pool = reversed_pairs("rsingle", 1);
  BandwidthLog one;
  one.append(-42, pool[0], 1.5);
  one.sort();
  ASSERT_EQ(one.record_count(), 1u);
  EXPECT_EQ(one.timestamps()[0], -42);
  EXPECT_EQ(one.pair_ids()[0], pool[0]);
  EXPECT_EQ(one.bandwidths()[0], 1.5);
}

TEST(PairNameRanks, DenseVectorFollowsNameOrder) {
  const auto pool = reversed_pairs("rrank", 30);
  const std::vector<util::PairId> some(pool.begin() + 5, pool.begin() + 20);
  const std::vector<std::uint32_t> rank = pair_name_ranks(some);
  const auto want = reference_ranks(some);
  ASSERT_EQ(rank.size(), static_cast<std::size_t>(*std::max_element(some.begin(), some.end())) + 1);
  for (util::PairId p = 0; p < rank.size(); ++p) {
    const auto it = want.find(p);
    if (it == want.end()) {
      EXPECT_EQ(rank[p], kUnranked) << "pair " << p;
    } else {
      EXPECT_EQ(rank[p], it->second) << "pair " << p;
    }
  }
  EXPECT_TRUE(pair_name_ranks({}).empty());
}

// ---------------------------------------------------------------------------
// extract_all_series / extract_series.

TEST(FlatGroupingProperty, ExtractAllSeriesMatchesMapGrouping) {
  const auto pool = reversed_pairs("rseries", 60);
  std::mt19937_64 rng(99);
  for (int round = 0; round < 40; ++round) {
    LogShape shape;
    shape.rows = rng() % 3000;
    shape.pairs = 1 + rng() % pool.size();
    shape.distinct_times = 1 + rng() % 200;
    // Minute steps under a five-minute or hourly epoch put several
    // timestamps in one bucket; sparse draws leave gaps.
    shape.step = (round % 2 == 0) ? util::kMinute : util::kTelemetryEpoch;
    shape.t0 = static_cast<util::SimTime>(rng() % 10000);
    const util::SimTime epoch = (round % 3 == 0) ? util::kHour : util::kTelemetryEpoch;
    BandwidthLog log = random_log(rng, pool, shape);
    if (round % 4 == 0) log.sort();  // some rounds exercise the ascending fast path

    const auto got = extract_all_series(log, epoch);
    const auto want = reference_all_series(log, epoch);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(got[k].first, want[k].first);
      expect_same_series(got[k].second, want[k].second);
      expect_same_series(extract_series(log, got[k].first, epoch), want[k].second);
    }
  }
}

TEST(FlatGroupingProperty, DuplicateTimestampsLastWins) {
  const auto pool = reversed_pairs("rlast", 2);
  BandwidthLog log;
  log.append(2 * util::kTelemetryEpoch, pool[0], 5.0);
  log.append(0, pool[0], 1.0);
  log.append(2 * util::kTelemetryEpoch, pool[0], 7.0);  // wins over 5.0
  log.append(0, pool[1], 3.0);
  log.append(0, pool[0], 2.0);  // wins over 1.0
  const auto got = extract_all_series(log);
  const auto want = reference_all_series(log, util::kTelemetryEpoch);
  ASSERT_EQ(got.size(), 2u);
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].first, want[k].first);
    expect_same_series(got[k].second, want[k].second);
  }
  const Series s = extract_series(log, pool[0]);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.values[0], 2.0);
  EXPECT_EQ(s.values[1], 4.5);  // interpolated gap
  EXPECT_EQ(s.values[2], 7.0);
}

TEST(FlatGroupingProperty, EmptyLogAndAbsentPair) {
  EXPECT_TRUE(extract_all_series(BandwidthLog{}).empty());
  const auto pool = reversed_pairs("rabsent", 2);
  BandwidthLog log;
  log.append(0, pool[0], 1.0);
  EXPECT_EQ(extract_series(log, pool[1]).size(), 0u);
  EXPECT_EQ(extract_series(log, util::kInvalidPairId).size(), 0u);
}

// ---------------------------------------------------------------------------
// DemandMatrix::from_log.

TEST(FlatGroupingProperty, DemandFromLogMatchesMapGrouping) {
  const auto pool = reversed_pairs("rdemand", 80);
  std::mt19937_64 rng(5);
  for (int round = 0; round < 30; ++round) {
    LogShape shape;
    shape.rows = rng() % 3000;
    shape.pairs = 1 + rng() % pool.size();
    shape.distinct_times = 1 + rng() % 100;
    BandwidthLog log;
    // Irregular bandwidths, so the summation order would show in the mean.
    for (std::size_t i = 0; i < shape.rows; ++i) {
      const auto t = static_cast<util::SimTime>(rng() % shape.distinct_times) * util::kMinute;
      const double bw = static_cast<double>(rng() % 1000000) / 7.0 + 0.1;
      log.append(t, pool[rng() % shape.pairs], bw);
    }
    for (const auto stat :
         {te::DemandStatistic::kMean, te::DemandStatistic::kP95, te::DemandStatistic::kMax}) {
      expect_same_matrix(te::DemandMatrix::from_log(log, stat), reference_from_log(log, stat));
    }
  }
}

TEST(FlatGroupingProperty, DemandFromForecastMatchesMapGrouping) {
  const auto pool = reversed_pairs("rforecast", 40);
  std::mt19937_64 rng(17);
  for (int round = 0; round < 10; ++round) {
    LogShape shape;
    shape.rows = rng() % 4000;
    shape.pairs = 1 + rng() % pool.size();
    shape.distinct_times = 1 + rng() % 600;
    BandwidthLog log = random_log(rng, pool, shape);
    for (const auto method : {ForecastMethod::kEwma, ForecastMethod::kSeasonalNaive}) {
      ForecastOptions options;
      options.season = 12;
      expect_same_matrix(te::DemandMatrix::from_forecast(log, 24, method, options),
                         reference_from_forecast(log, 24, method, options));
    }
  }
}

}  // namespace
}  // namespace smn::telemetry
