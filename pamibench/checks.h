// Correctness checks. Each takes plain data (ledgers, logs, counters) and
// returns an empty string when the case is correct or a reason when it is
// not, so the self-test can hand each one a corrupted case and require a
// rejection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace pamibench {

/// A message as the sender issued it, in send order.
struct Sent {
  int src = 0;
  int tag = 0;
  std::uint64_t seq = 0;
  std::size_t bytes = 0;
};

/// What one posted receive got. `seq` is decoded from the payload stamp
/// (messages of 8 bytes or more); `has_seq` is false for shorter ones,
/// whose identity is their position.
struct Got {
  int src = -1;
  int tag = -1;
  std::size_t bytes = 0;
  std::uint64_t seq = 0;
  bool has_seq = false;
};

/// Payload equals the seeded pattern of (sender, seq), stamp included.
inline std::string check_payload(const std::byte* data, std::size_t bytes, std::uint64_t seed,
                                 int sender, std::uint64_t seq) {
  if (bytes >= 8) {
    std::uint64_t stamp = 0;
    std::memcpy(&stamp, data, 8);
    if (stamp != seq) return "payload stamp names another message";
  }
  const std::uint64_t key = pattern_key(seed, sender, seq);
  std::size_t i = bytes >= 8 ? 8 : 0;
  for (; i + 8 <= bytes; i += 8) {
    const std::uint64_t w = pattern_word(key, i / 8);
    if (std::memcmp(data + i, &w, 8) != 0) break;
  }
  for (; i < bytes; ++i) {
    if (data[i] != pattern_byte(key, i)) {
      return "payload byte " + std::to_string(i) + " differs from the pattern";
    }
  }
  return {};
}

/// The receives posted in send order got exactly the ledger's messages:
/// none dropped, none duplicated, same (source, tag) pairs in send order,
/// status fields matching, and bytes sent and received tallied apart.
inline std::string check_delivery(const std::vector<Sent>& ledger, const std::vector<Got>& log) {
  std::uint64_t sent_bytes = 0, got_bytes = 0;
  for (const Sent& s : ledger) sent_bytes += s.bytes;
  for (const Got& g : log) got_bytes += g.bytes;
  if (log.size() < ledger.size()) return "message dropped";
  if (log.size() > ledger.size()) return "message duplicated";
  std::set<std::uint64_t> seen;
  std::map<std::pair<int, int>, std::uint64_t> last_seq;
  for (std::size_t k = 0; k < log.size(); ++k) {
    const Got& g = log[k];
    const Sent& s = ledger[k];
    if (g.has_seq) {
      if (!seen.insert(g.seq).second) return "message duplicated";
      auto key = std::make_pair(g.src, g.tag);
      auto it = last_seq.find(key);
      if (it != last_seq.end() && g.seq <= it->second) return "same source and tag out of send order";
      last_seq[key] = g.seq;
      if (g.seq != s.seq) return "receive got another message than the ledger's";
    }
    if (g.src != s.src) return "status source differs from the ledger";
    if (g.tag != s.tag) return "status tag differs from the ledger";
    if (g.bytes != s.bytes) return "status byte count differs from the ledger";
  }
  if (sent_bytes != got_bytes) return "bytes sent and bytes received disagree";
  return {};
}

/// Two tallies of the same operations agree.
inline std::string check_counts(const char* what, std::uint64_t a, std::uint64_t b) {
  if (a != b) {
    return std::string(what) + ": " + std::to_string(a) + " != " + std::to_string(b);
  }
  return {};
}

/// A bandwidth in virtual time cannot beat the links that carried it.
inline std::string check_bw_bound(const char* what, double mb_s, double bound_mb_s) {
  if (!(mb_s > 0.0)) return std::string(what) + ": no bandwidth";
  if (mb_s > bound_mb_s) {
    return std::string(what) + ": " + std::to_string(mb_s) + " MB/s above the physical bound " +
           std::to_string(bound_mb_s);
  }
  return {};
}

/// A virtual latency cannot beat the hop floor of its path.
inline std::string check_latency_floor(const char* what, double us, double floor_us) {
  if (!(us >= floor_us)) {
    return std::string(what) + ": " + std::to_string(us) + " us below the hop floor " +
           std::to_string(floor_us);
  }
  return {};
}

/// Every packet the MUs injected was delivered by the DES, none invented.
inline std::string check_packet_conservation(std::uint64_t injected, std::uint64_t delivered) {
  return check_counts("MU packets injected vs DES packets delivered", injected, delivered);
}

/// Hand every check a correct case and a corrupted one; print one line per
/// case. Returns true when each correct case passes and each corrupted
/// case is rejected.
bool run_check_selftest(bool verbose);

}  // namespace pamibench
