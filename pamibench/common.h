// Shared pieces of the benchmark program: command-line options, the seeded
// generator, block timing and its estimator, the counting allocator, the
// span recorder of a traced run, and the result printer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/clock.h"
#include "obs/pvar.h"

namespace pamibench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // where a traced run writes its span file
};

/// splitmix64: stateless mixing for payload patterns, stateful stepping
/// for traffic shapes. The same seed gives the same inputs everywhere.
inline std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(mix64(seed ^ 0x5eedull)) {}
  std::uint64_t next() { return mix64(s_++); }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t s_;
};

/// Payload pattern of message (`sender`, `seq`) under `seed`: every payload
/// check compares against it. The key is computed once per message.
inline std::uint64_t pattern_key(std::uint64_t seed, int sender, std::uint64_t seq) {
  return mix64(seed * 1000003u + static_cast<std::uint64_t>(sender) * 7919u + seq);
}
/// Word `j` of the pattern; byte `i` of a payload is byte i%8 of word i/8.
inline std::uint64_t pattern_word(std::uint64_t key, std::size_t j) {
  const std::uint64_t z = (key + j) * 0x9e3779b97f4a7c15ull;
  return z ^ (z >> 29);
}
inline std::byte pattern_byte(std::uint64_t key, std::size_t i) {
  return static_cast<std::byte>(pattern_word(key, i / 8) >> ((i % 8) * 8));
}
/// Fill `buf` with the pattern; messages of 8 bytes or more carry `seq` as
/// a stamp in their first 8 bytes, so a receiver can tell which one it got.
void fill_pattern(std::byte* buf, std::size_t bytes, std::uint64_t seed, int sender,
                  std::uint64_t seq);

// ---- allocation counting ----------------------------------------------------

/// Global operator new calls since process start (main.cpp replaces
/// operator new with a counting forwarder).
std::uint64_t allocations();

// ---- block timing -------------------------------------------------------------

/// Host-clock samples of one metric, one per block. The estimator is the
/// mean of the fastest tenth: on hosts that drift between a fast and a
/// ~1.5x slower phase for seconds at a time, the fastest tenth of a run's
/// blocks stays put while its median follows whichever phase dominated.
struct Samples {
  std::vector<double> v;
  void add(double x) { v.push_back(x); }
  std::size_t size() const { return v.size(); }
  double fastest_tenth() const;  // smallest values (times)
  double quantile(double q) const;
};

// ---- spans (traced runs) -----------------------------------------------------

enum class SpanKind : std::uint8_t {
  MpiIsend,
  MpiIrecv,
  MpiTest,
  AmCall,
  AmSend,
  CtxAdvance,
  AmHandler,
  ScnBarrier,
  ScnAllreduce,
  ScnBcast,
  ScnAllToAll,
  Count,
};
const char* span_name(SpanKind k);

/// Records spans around the benchmark's calls into a layer's public
/// functions. Off, a Span costs one branch. On, it takes two clock reads,
/// keeps per-kind totals with self time (time not spent in nested spans),
/// and stores the first spans in memory for the span file.
class Tracer {
 public:
  static Tracer& get();
  bool on = false;

  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  Totals totals[static_cast<std::size_t>(SpanKind::Count)]{};
  struct Rec {
    std::uint64_t start_ns;
    std::uint32_t dur_ns;
    SpanKind kind;
    std::uint8_t depth;
  };
  std::vector<Rec> kept;
  static constexpr std::size_t kKeep = 200000;

  // Nesting stack: time covered by child spans, per open span. The
  // benchmark nests at most two deep (a handler inside an advance).
  static constexpr int kMaxDepth = 8;
  std::uint64_t child_ns[kMaxDepth + 1]{};
  int depth = 0;

  void write(const std::string& path) const;
};

class Span {
 public:
  explicit Span(SpanKind k) : k_(k) {
    Tracer& t = Tracer::get();
    if (!t.on || t.depth == Tracer::kMaxDepth) return;
    active_ = true;
    t.child_ns[++t.depth] = 0;
    t0_ = pamix::obs::now_ns();
  }
  ~Span() {
    if (!active_) return;
    Tracer& t = Tracer::get();
    const std::uint64_t dur = pamix::obs::now_ns() - t0_;
    Tracer::Totals& tot = t.totals[static_cast<std::size_t>(k_)];
    ++tot.calls;
    tot.total_ns += dur;
    const std::uint64_t child = t.child_ns[t.depth];
    tot.self_ns += dur > child ? dur - child : 0;
    if (t.kept.size() < Tracer::kKeep) {
      t.kept.push_back({t0_, static_cast<std::uint32_t>(dur), k_,
                        static_cast<std::uint8_t>(t.depth)});
    }
    --t.depth;
    t.child_ns[t.depth] += dur;  // child_ns[0] collects top-level time, unused
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanKind k_;
  bool active_ = false;
  std::uint64_t t0_ = 0;
};

// ---- results --------------------------------------------------------------------

/// What a workload hands back to main(): the verdict, the operation counts
/// and its measured metrics by name. main() prints the benchmark's fixed
/// metric lists in order, so every workload reports every name; a layer a
/// workload does not exercise reads 0.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::vector<std::string> failures;  // first few check failures, for the log

  void fail(const std::string& why) {
    correct = false;
    if (failures.size() < 20) failures.push_back(why);
  }
  void e2e(const std::string& name, double v) { end_to_end[name] = v; }
  void layer(const std::string& name, double v) { per_layer[name] = v; }
};

/// Print a spread line for a host-clock metric: block count and quartiles.
void print_spread(const char* name, const Samples& s, double scale, const char* unit);

/// Pvar totals over every registered domain.
pamix::obs::PvarSnapshot pvar_totals();
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer share of traced block time spent in each span kind (self time).
void add_span_shares(Result& r, double traced_ns);

/// Workloads. Each builds its world, warms up (`setup_s` ends there), then
/// runs whole blocks for `opt.seconds`, checks every output and fills `r`.
void run_mpi_pt2pt(const Options& opt, double setup_start_s, Result& r);
void run_am_rpc(const Options& opt, double setup_start_s, Result& r);
void run_des_collectives(const Options& opt, double setup_start_s, Result& r);

/// Seconds since process start (steady clock, anchored at static init).
double process_seconds();
/// Peak resident set size of this process, in MB.
double peak_rss_mb();

}  // namespace pamibench
