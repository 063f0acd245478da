#include "telemetry/bandwidth_log.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <type_traits>
#include <unordered_map>

#include "util/contracts.h"
#include "util/string_util.h"

namespace smn::telemetry {

std::vector<std::uint32_t> pair_name_ranks(std::span<const util::PairId> pairs) {
  if (pairs.empty()) return {};
  const util::PairId top = *std::max_element(pairs.begin(), pairs.end());
  SMN_CHECK(top != util::kInvalidPairId, "pair_name_ranks over an invalid PairId");
  std::vector<std::uint32_t> rank(static_cast<std::size_t>(top) + 1, kUnranked);
  std::vector<util::PairId> unique;
  for (const util::PairId p : pairs) {
    if (rank[p] == kUnranked) {
      rank[p] = 0;  // seen; the real rank is assigned below
      unique.push_back(p);
    }
  }
  const util::IdSpace& ids = util::IdSpace::global();
  std::sort(unique.begin(), unique.end(),
            [&](util::PairId a, util::PairId b) { return ids.pair_name_less(a, b); });
  for (std::uint32_t i = 0; i < unique.size(); ++i) rank[unique[i]] = i;
  return rank;
}

PairGroups group_rows_by_pair(std::span<const util::PairId> pairs) {
  PairGroups groups;
  if (pairs.empty()) return groups;
  SMN_CHECK(pairs.size() <= std::numeric_limits<std::uint32_t>::max(),
            "group_rows_by_pair: row index overflows u32");
  const util::PairId top = *std::max_element(pairs.begin(), pairs.end());
  SMN_CHECK(top != util::kInvalidPairId, "group_rows_by_pair over an invalid PairId");
  // Counting sort: histogram, exclusive prefix sum, then a stable scatter.
  groups.offset.assign(static_cast<std::size_t>(top) + 2, 0);
  for (const util::PairId p : pairs) ++groups.offset[p + 1];
  for (std::size_t p = 1; p < groups.offset.size(); ++p) {
    groups.offset[p] += groups.offset[p - 1];
  }
  std::vector<std::uint32_t> fill(groups.offset.begin(), groups.offset.end() - 1);
  groups.order.resize(pairs.size());
  for (std::uint32_t i = 0; i < pairs.size(); ++i) groups.order[fill[pairs[i]]++] = i;
  return groups;
}

BandwidthRecord BandwidthLog::record_at(std::size_t i) const {
  const util::IdSpace& ids = util::IdSpace::global();
  return BandwidthRecord{timestamps_.at(i), ids.src_name(pairs_[i]), ids.dst_name(pairs_[i]),
                         bw_[i]};
}

std::vector<BandwidthRecord> BandwidthLog::records() const {
  std::vector<BandwidthRecord> out;
  out.reserve(record_count());
  const util::IdSpace& ids = util::IdSpace::global();
  for (std::size_t i = 0; i < record_count(); ++i) {
    out.push_back(
        BandwidthRecord{timestamps_[i], ids.src_name(pairs_[i]), ids.dst_name(pairs_[i]), bw_[i]});
  }
  return out;
}

void BandwidthLog::append_time_filtered(std::span<const util::SimTime> timestamps,
                                        std::span<const util::PairId> pairs,
                                        std::span<const double> bw_gbps, util::SimTime begin,
                                        util::SimTime end) {
  SMN_DCHECK(pairs.size() == timestamps.size() && bw_gbps.size() == timestamps.size(),
             "filtered append with diverging column lengths");
  // Segments are mostly in order, so in-range records arrive in long runs;
  // copy each run as whole columns instead of a per-record append.
  const std::size_t n = timestamps.size();
  std::size_t i = 0;
  while (i < n) {
    while (i < n && (timestamps[i] < begin || timestamps[i] >= end)) ++i;
    std::size_t j = i;
    while (j < n && timestamps[j] >= begin && timestamps[j] < end) ++j;
    if (j > i) {
      append_columns(timestamps.subspan(i, j - i), pairs.subspan(i, j - i),
                     bw_gbps.subspan(i, j - i));
    }
    i = j;
  }
}

namespace {

// 11-bit digits: a 2048-bucket histogram stays in L1, and one digit covers
// the name ranks of up to 2048 pairs, two digits a 48-day span of seconds.
constexpr unsigned kRadixBits = 11;
constexpr std::size_t kRadix = std::size_t{1} << kRadixBits;

/// Number of radix digits needed to represent `max_key`.
unsigned digits_for(std::uint64_t max_key) noexcept {
  unsigned digits = 0;
  while (max_key != 0) {
    ++digits;
    max_key >>= kRadixBits;
  }
  return digits;
}

}  // namespace

void BandwidthLog::sort() {
  SMN_DCHECK(pairs_.size() == timestamps_.size() && bw_.size() == timestamps_.size(),
             "columnar SoA columns diverged");
  const std::size_t n = record_count();
  if (n < 2) return;
  SMN_CHECK(n <= std::numeric_limits<std::uint32_t>::max(), "sort: row index overflows u32");
  const std::vector<std::uint32_t> rank = pair_name_ranks(pairs_);
  const auto [lo, hi] = time_range();
  std::uint32_t max_rank = 0;
  for (const std::uint32_t r : rank) {
    if (r != kUnranked) max_rank = std::max(max_rank, r);
  }
  // The sort key is (delta, rank) with delta = timestamp - min timestamp:
  // LSD order sorts the rank digits first, then the time digits. Each key
  // is split into digits on the fly, so any span of either fits.
  const unsigned rank_digits = digits_for(max_rank);
  const unsigned time_digits =
      digits_for(static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo));
  const unsigned passes = rank_digits + time_digits;
  const auto digit_of = [&](std::uint32_t row, unsigned pass) -> std::size_t {
    if (pass < rank_digits) return (rank[pairs_[row]] >> (pass * kRadixBits)) & (kRadix - 1);
    const auto delta =
        static_cast<std::uint64_t>(timestamps_[row]) - static_cast<std::uint64_t>(lo);
    return static_cast<std::size_t>((delta >> ((pass - rank_digits) * kRadixBits)) &
                                    (kRadix - 1));
  };

  // Every pass's histogram comes from one sequential scan: a digit's counts
  // do not depend on the current order.
  std::vector<std::uint32_t> counts(static_cast<std::size_t>(passes) * kRadix, 0);
  for (std::uint32_t row = 0; row < n; ++row) {
    for (unsigned pass = 0; pass < passes; ++pass) ++counts[pass * kRadix + digit_of(row, pass)];
  }

  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<std::uint32_t> scratch(n);
  for (unsigned pass = 0; pass < passes; ++pass) {
    std::uint32_t* bucket = counts.data() + static_cast<std::size_t>(pass) * kRadix;
    // A digit every row shares leaves the order as it is.
    if (bucket[digit_of(order[0], pass)] == n) continue;
    std::uint32_t next = 0;
    for (std::size_t d = 0; d < kRadix; ++d) {
      const std::uint32_t c = bucket[d];
      bucket[d] = next;
      next += c;
    }
    for (const std::uint32_t row : order) scratch[bucket[digit_of(row, pass)]++] = row;
    order.swap(scratch);
  }
  std::vector<std::uint32_t>().swap(scratch);

  // Gather one column at a time, so at most one column copy is live.
  const auto gather = [&](auto& column) {
    std::remove_reference_t<decltype(column)> sorted(n);
    for (std::size_t i = 0; i < n; ++i) sorted[i] = column[order[i]];
    column = std::move(sorted);
  };
  gather(timestamps_);
  gather(pairs_);
  gather(bw_);
}

std::pair<util::SimTime, util::SimTime> BandwidthLog::time_range() const noexcept {
  if (timestamps_.empty()) return {0, 0};
  util::SimTime lo = timestamps_.front();
  util::SimTime hi = lo;
  for (const util::SimTime t : timestamps_) {
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  return {lo, hi};
}

std::vector<util::PairId> BandwidthLog::pair_ids_first_seen() const {
  std::vector<util::PairId> out;
  std::unordered_map<util::PairId, bool> seen;
  for (const util::PairId p : pairs_) {
    if (seen.emplace(p, true).second) out.push_back(p);
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> BandwidthLog::pairs() const {
  std::vector<std::pair<std::string, std::string>> out;
  const util::IdSpace& ids = util::IdSpace::global();
  for (const util::PairId p : pair_ids_first_seen()) {
    out.emplace_back(ids.src_name(p), ids.dst_name(p));
  }
  return out;
}

std::map<util::PairId, std::vector<std::pair<util::SimTime, double>>>
BandwidthLog::series_by_pair_id() const {
  std::map<util::PairId, std::vector<std::pair<util::SimTime, double>>> out;
  for (std::size_t i = 0; i < record_count(); ++i) {
    out[pairs_[i]].emplace_back(timestamps_[i], bw_[i]);
  }
  return out;
}

std::map<std::pair<std::string, std::string>, std::vector<std::pair<util::SimTime, double>>>
BandwidthLog::series_by_pair() const {
  std::map<std::pair<std::string, std::string>, std::vector<std::pair<util::SimTime, double>>> out;
  const util::IdSpace& ids = util::IdSpace::global();
  for (auto& [pair, series] : series_by_pair_id()) {
    out.emplace(std::make_pair(ids.src_name(pair), ids.dst_name(pair)), std::move(series));
  }
  return out;
}

double BandwidthLog::total_volume() const noexcept {
  double total = 0.0;
  for (const double v : bw_) total += v;
  return total;
}

std::string BandwidthLog::to_listing_format() const {
  std::ostringstream out;
  out << "# Format: ts, src_dc, dst_dc, bw_Gbps\n";
  const util::IdSpace& ids = util::IdSpace::global();
  for (std::size_t i = 0; i < record_count(); ++i) {
    out << util::format_iso8601(timestamps_[i]) << ", " << ids.src_name(pairs_[i]) << ", "
        << ids.dst_name(pairs_[i]) << ", " << util::format_double(bw_[i], 0) << '\n';
  }
  return out.str();
}

BandwidthLog BandwidthLog::from_listing_format(const std::string& text,
                                               ListingParseStats* stats) {
  BandwidthLog log;
  ListingParseStats local;
  util::IdSpace& ids = util::IdSpace::global();
  std::istringstream in(text);
  std::string line;
  util::SimTime last_ts = std::numeric_limits<util::SimTime>::min();
  while (std::getline(in, line)) {
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const auto fields = util::split(trimmed, ',');
    if (fields.size() != 4) {
      ++local.bad_field_count;
      continue;
    }
    util::SimTime ts = 0;
    if (!util::parse_iso8601(std::string(util::trim(fields[0])), ts)) {
      ++local.bad_timestamp;
      continue;
    }
    const std::string_view src = util::trim(fields[1]);
    const std::string_view dst = util::trim(fields[2]);
    double bw = 0.0;
    try {
      bw = std::stod(std::string(util::trim(fields[3])));
    } catch (...) {
      ++local.bad_value;
      continue;
    }
    if (!std::isfinite(bw)) {
      ++local.non_finite;
      continue;
    }
    if (bw < 0.0) {
      ++local.negative;
      continue;
    }
    if (src.empty() || dst.empty()) {
      ++local.empty_name;
      continue;
    }
    if (ts < last_ts) {
      ++local.out_of_order;
      continue;
    }
    last_ts = ts;
    log.append(ts, ids.pair_of_names(src, dst), bw);
    ++local.parsed;
  }
  if (stats != nullptr) *stats = local;
  return log;
}

BandwidthLog BandwidthLog::from_listing_format(const std::string& text, std::size_t* skipped) {
  ListingParseStats stats;
  BandwidthLog log = from_listing_format(text, &stats);
  if (skipped != nullptr) *skipped = stats.skipped();
  return log;
}

std::size_t BandwidthLog::approximate_bytes() const noexcept {
  // "2025-06-01T00:00, us-e1, eu-w1, 1250\n" — timestamp (16) + separators
  // (6) + value (~6) + names. Name lengths are cached per pair id.
  const util::IdSpace& ids = util::IdSpace::global();
  std::unordered_map<util::PairId, std::size_t> name_bytes;
  std::size_t bytes = 0;
  for (const util::PairId p : pairs_) {
    auto it = name_bytes.find(p);
    if (it == name_bytes.end()) {
      it = name_bytes.emplace(p, ids.src_name(p).size() + ids.dst_name(p).size()).first;
    }
    bytes += 16 + 6 + 6 + it->second + 1;
  }
  return bytes;
}

}  // namespace smn::telemetry
