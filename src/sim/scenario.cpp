#include "sim/scenario.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "core/client.h"
#include "core/collectives.h"
#include "core/context.h"
#include "core/geometry.h"
#include "core/topology.h"
#include "runtime/des_network.h"
#include "runtime/machine.h"
#include "sim/rect_bcast.h"

namespace pamix::sim {

namespace {

// Dispatch ids used by the scenario state machines (well below the 4096
// entry dispatch table; disjoint from the test/bench ids which start low).
constexpr pami::DispatchId kDisBarrierUp = 3001;
constexpr pami::DispatchId kDisBarrierDown = 3002;
constexpr pami::DispatchId kDisArUp = 3003;
constexpr pami::DispatchId kDisArDown = 3004;
constexpr pami::DispatchId kDisBcast = 3005;
constexpr pami::DispatchId kDisSink = 3006;
constexpr pami::DispatchId kDisPing = 3007;

// Small enough that an eager message is always a single packet (payload +
// user header + protocol header fit in the 512-byte MU chunk), so traffic
// scenarios need no landing buffers.
constexpr std::size_t kSmallMsgBytes = 256;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[noreturn]] void fail(const char* what) { throw std::runtime_error(what); }

/// send() with sender-side drain on Eagain. Eagain hands the (move-only)
/// callbacks back in `p`, so retrying with the same params is safe; the
/// DES backend never refuses a transmit, so draining the sender's
/// injection path always clears the condition.
void send_from(ScenarioWorld& w, int node, pami::SendParams& p) {
  pami::Context& c = w.ctx(node);
  for (int spins = 0;; ++spins) {
    const pami::Result r = c.send(std::move(p));
    if (r == pami::Result::Success) {
      w.mark_dirty(node);
      return;
    }
    if (r != pami::Result::Eagain || spins > 1'000'000) fail("scenario: send failed");
    w.pump(node);
    w.net().advance_time();
  }
}

void send_immediate_from(ScenarioWorld& w, int node, pami::DispatchId dispatch, int dest,
                         const void* header, std::size_t header_bytes) {
  pami::Context& c = w.ctx(node);
  for (int spins = 0;; ++spins) {
    const pami::Result r = c.send_immediate(dispatch, pami::Endpoint{dest, 0}, header,
                                            header_bytes, nullptr, 0);
    if (r == pami::Result::Success) {
      w.mark_dirty(node);
      return;
    }
    if (r != pami::Result::Eagain || spins > 1'000'000) fail("scenario: immediate send failed");
    w.pump(node);
    w.net().advance_time();
  }
}

int tree_parent(int node, int radix) { return (node - 1) / radix; }

int tree_child_count(int node, int radix, int n) {
  const long long first = static_cast<long long>(node) * radix + 1;
  if (first >= n) return 0;
  const long long last = std::min<long long>(first + radix - 1, n - 1);
  return static_cast<int>(last - first + 1);
}

}  // namespace

// ---- ScenarioWorld ---------------------------------------------------------

ScenarioWorld::ScenarioWorld(ScenarioOptions opt) : opt_(opt) {
  runtime::MachineOptions mo;
  mo.inj_fifo_capacity = opt_.inj_fifo_capacity;
  mo.rec_fifo_capacity = opt_.rec_fifo_capacity;
  mo.backend = hw::NetBackendKind::Des;
  mo.sim_seed = opt_.seed;
  mo.link_skew_pct = opt_.link_skew_pct;
  mo.des_auto_advance = false;  // the run() loop owns the virtual clock
  machine_ = std::make_unique<runtime::Machine>(opt_.geom, /*ppn=*/1, mo);
  net_ = machine_->des_network();
  if (net_ == nullptr) fail("scenario: machine has no DES backend");

  pami::ClientConfig cc;
  cc.name = "scenario";
  cc.contexts_per_task = 1;
  cc.eager_limit = opt_.eager_limit;
  cc.send_fifos_per_context = opt_.send_fifos_per_context;
  cc.work_queue_capacity = opt_.work_queue_capacity;
  cc.shm_queue_capacity = opt_.shm_queue_capacity;
  world_ = std::make_unique<pami::ClientWorld>(*machine_, cc);

  const int n = machine_->node_count();
  dirty_.assign(static_cast<std::size_t>(n), 1);
  dirty_queue_.resize(static_cast<std::size_t>(n));
  std::iota(dirty_queue_.begin(), dirty_queue_.end(), 0);
  net_->set_delivery_listener([this](int node) { mark_dirty(node); });
}

ScenarioWorld::~ScenarioWorld() {
  if (net_ != nullptr) net_->set_delivery_listener(nullptr);
}

pami::Context& ScenarioWorld::ctx(int node) { return world_->client(node).context(0); }

int ScenarioWorld::nodes() const { return machine_->node_count(); }

double ScenarioWorld::now_us() const { return net_->now_us(); }

void ScenarioWorld::mark_dirty(int node) {
  if (dirty_[static_cast<std::size_t>(node)]) return;
  dirty_[static_cast<std::size_t>(node)] = 1;
  dirty_queue_.push_back(node);
}

void ScenarioWorld::pump(int node) {
  pami::Context& c = ctx(node);
  while (c.advance(1) > 0) {
  }
}

void ScenarioWorld::run() {
  for (;;) {
    // Sweep the dirty set. Handlers may re-dirty nodes (sends only create
    // future DES events, deliveries only happen in advance_time), so one
    // indexed pass over the growing queue is a complete sweep.
    for (std::size_t i = 0; i < dirty_queue_.size(); ++i) {
      const int node = dirty_queue_[i];
      dirty_[static_cast<std::size_t>(node)] = 0;
      pump(node);
    }
    dirty_queue_.clear();
    // Software quiesced: move the virtual clock one event batch. Deliveries
    // re-dirty their nodes through the listener.
    if (!net_->advance_time() && dirty_queue_.empty()) break;
  }
}

obs::PvarSnapshot ScenarioWorld::net_pvars() const { return net_->obs().pvars.snapshot(); }

// ---- Tree barrier ----------------------------------------------------------

namespace {

struct BarrierState {
  ScenarioWorld* w = nullptr;
  int n = 0;
  int radix = 0;
  std::vector<int> arrived;
  std::vector<int> child_count;
  double last_release = 0.0;
  int released = 0;
  char token = 1;

  void subtree_ready(int node);
  void release(int node);
};

void BarrierState::subtree_ready(int node) {
  if (node == 0) {
    release(0);
    return;
  }
  send_immediate_from(*w, node, kDisBarrierUp, tree_parent(node, radix), &token, 1);
}

void BarrierState::release(int node) {
  ++released;
  last_release = w->now_us();
  const int first = node * radix + 1;
  for (int c = first; c < first + radix && c < n; ++c) {
    send_immediate_from(*w, node, kDisBarrierDown, c, &token, 1);
  }
}

}  // namespace

BarrierStats scenario_tree_barrier(ScenarioWorld& w, int radix) {
  const int n = w.nodes();
  BarrierState st;
  st.w = &w;
  st.n = n;
  st.radix = radix;
  st.arrived.assign(static_cast<std::size_t>(n), 0);
  st.child_count.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) st.child_count[static_cast<std::size_t>(i)] = tree_child_count(i, radix, n);

  BarrierState* s = &st;
  for (int i = 0; i < n; ++i) {
    pami::Context& c = w.ctx(i);
    c.set_dispatch(kDisBarrierUp,
                   [s](pami::Context& ctx, const void*, std::size_t, const void*, std::size_t,
                       std::size_t, pami::Endpoint, pami::RecvDescriptor*) {
                     const int node = ctx.client().task();
                     if (++s->arrived[static_cast<std::size_t>(node)] ==
                         s->child_count[static_cast<std::size_t>(node)]) {
                       s->subtree_ready(node);
                     }
                   });
    c.set_dispatch(kDisBarrierDown,
                   [s](pami::Context& ctx, const void*, std::size_t, const void*, std::size_t,
                       std::size_t, pami::Endpoint, pami::RecvDescriptor*) {
                     s->release(ctx.client().task());
                   });
  }

  const double t0 = w.now_us();
  // Leaves enter the barrier; interior nodes are "already blocked" and
  // report up as soon as their subtree completes.
  for (int i = 0; i < n; ++i) {
    if (st.child_count[static_cast<std::size_t>(i)] == 0) st.subtree_ready(i);
  }
  w.run();
  if (st.released != n) fail("scenario: barrier did not release every node");

  BarrierStats out;
  out.radix = radix;
  out.latency_us = st.last_release - t0;
  int depth = 0;
  for (long long span = 1; span < n; span = span * radix + 1) ++depth;
  out.depth = depth;
  return out;
}

// ---- Pipelined allreduce ---------------------------------------------------

namespace {

struct ChunkHdr {
  std::uint32_t chunk = 0;
};

struct ArState {
  ScenarioWorld* w = nullptr;
  int n = 0;
  int radix = 0;
  int nchunks = 0;
  std::size_t bytes = 0;
  std::size_t chunk = 0;
  std::vector<std::vector<double>> acc;            // [node] local → global values
  std::vector<std::vector<std::byte>> rx;          // [node*radix+slot] landing buffers
  std::vector<std::vector<std::uint8_t>> contrib;  // [node][chunk] children heard
  std::vector<int> child_count;
  std::vector<int> down_seen;  // [node] completed chunks delivered down
  int done_nodes = 0;
  double t_end = 0.0;

  std::size_t off(int c) const { return static_cast<std::size_t>(c) * chunk; }
  std::size_t len(int c) const { return std::min(chunk, bytes - off(c)); }

  void accumulate(int node, int c, const std::byte* src) {
    double* a = acc[static_cast<std::size_t>(node)].data() + off(c) / sizeof(double);
    const double* s = reinterpret_cast<const double*>(src);
    const std::size_t cnt = len(c) / sizeof(double);
    for (std::size_t i = 0; i < cnt; ++i) a[i] += s[i];
  }

  void send_chunk(int node, int dest, pami::DispatchId dispatch, int c) {
    ChunkHdr hdr{static_cast<std::uint32_t>(c)};
    pami::SendParams p;
    p.dispatch = dispatch;
    p.dest = pami::Endpoint{dest, 0};
    p.header = &hdr;
    p.header_bytes = sizeof(hdr);
    p.data = acc[static_cast<std::size_t>(node)].data() + off(c) / sizeof(double);
    p.data_bytes = len(c);
    send_from(*w, node, p);
  }

  void child_done(int node, int slot, int c) {
    accumulate(node, c, rx[static_cast<std::size_t>(node * radix + slot)].data());
    chunk_contributed(node, c);
  }

  void chunk_contributed(int node, int c) {
    auto& got = contrib[static_cast<std::size_t>(node)][static_cast<std::size_t>(c)];
    if (++got < child_count[static_cast<std::size_t>(node)]) return;
    chunk_ready(node, c);
  }

  /// Every child contributed chunk `c` at `node`: forward up, or complete
  /// at the root and start the downward broadcast.
  void chunk_ready(int node, int c) {
    if (node == 0) {
      down_done(0, c);
    } else {
      send_chunk(node, tree_parent(node, radix), kDisArUp, c);
    }
  }

  /// Chunk `c` now holds the global sum in `node`'s acc: forward down and
  /// count completion.
  void down_done(int node, int c) {
    const int first = node * radix + 1;
    for (int ch = first; ch < first + radix && ch < n; ++ch) {
      send_chunk(node, ch, kDisArDown, c);
    }
    if (++down_seen[static_cast<std::size_t>(node)] == nchunks) {
      if (++done_nodes == n) t_end = w->now_us();
    }
  }
};

int ar_chunk_of(const void* header, std::size_t header_bytes) {
  ChunkHdr hdr;
  if (header_bytes != sizeof(hdr)) fail("scenario: bad allreduce header");
  std::memcpy(&hdr, header, sizeof(hdr));
  return static_cast<int>(hdr.chunk);
}

}  // namespace

AllreduceStats scenario_allreduce(ScenarioWorld& w, std::size_t bytes, std::size_t chunk_bytes,
                                  int radix) {
  const int n = w.nodes();
  bytes = std::max<std::size_t>(sizeof(double), bytes / sizeof(double) * sizeof(double));
  chunk_bytes = std::max<std::size_t>(sizeof(double),
                                      chunk_bytes / sizeof(double) * sizeof(double));
  ArState st;
  st.w = &w;
  st.n = n;
  st.radix = radix;
  st.bytes = bytes;
  st.chunk = std::min(chunk_bytes, bytes);
  st.nchunks = static_cast<int>((bytes + st.chunk - 1) / st.chunk);
  const std::size_t values = bytes / sizeof(double);
  st.acc.assign(static_cast<std::size_t>(n), std::vector<double>(values, 1.0));
  st.rx.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(radix), {});
  st.contrib.assign(static_cast<std::size_t>(n),
                    std::vector<std::uint8_t>(static_cast<std::size_t>(st.nchunks), 0));
  st.child_count.resize(static_cast<std::size_t>(n));
  st.down_seen.assign(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    st.child_count[static_cast<std::size_t>(i)] = tree_child_count(i, radix, n);
    for (int s = 0; s < st.child_count[static_cast<std::size_t>(i)]; ++s) {
      st.rx[static_cast<std::size_t>(i * radix + s)].resize(st.chunk);
    }
  }

  ArState* s = &st;
  for (int i = 0; i < n; ++i) {
    pami::Context& c = w.ctx(i);
    c.set_dispatch(
        kDisArUp, [s](pami::Context& ctx, const void* header, std::size_t header_bytes,
                      const void* pipe, std::size_t pipe_bytes, std::size_t total,
                      pami::Endpoint origin, pami::RecvDescriptor* recv) {
          const int node = ctx.client().task();
          const int c2 = ar_chunk_of(header, header_bytes);
          const int slot = origin.task - (node * s->radix + 1);
          std::byte* land = s->rx[static_cast<std::size_t>(node * s->radix + slot)].data();
          if (recv == nullptr) {
            // Whole chunk in one packet.
            if (pipe_bytes != total) fail("scenario: truncated allreduce chunk");
            std::memcpy(land, pipe, total);
            s->child_done(node, slot, c2);
            return;
          }
          recv->buffer = land;
          recv->bytes = total;
          recv->on_complete = [s, node, slot, c2] { s->child_done(node, slot, c2); };
        });
    c.set_dispatch(
        kDisArDown, [s](pami::Context& ctx, const void* header, std::size_t header_bytes,
                        const void* pipe, std::size_t pipe_bytes, std::size_t total,
                        pami::Endpoint, pami::RecvDescriptor* recv) {
          const int node = ctx.client().task();
          const int c2 = ar_chunk_of(header, header_bytes);
          // The final values land straight in the accumulation buffer: the
          // node's own contribution went up (staged) before the root could
          // possibly complete this chunk.
          std::byte* land = reinterpret_cast<std::byte*>(
              s->acc[static_cast<std::size_t>(node)].data() + s->off(c2) / sizeof(double));
          if (recv == nullptr) {
            if (pipe_bytes != total) fail("scenario: truncated allreduce chunk");
            std::memcpy(land, pipe, total);
            s->down_done(node, c2);
            return;
          }
          recv->buffer = land;
          recv->bytes = total;
          recv->on_complete = [s, node, c2] { s->down_done(node, c2); };
        });
  }

  const double t0 = w.now_us();
  for (int i = 0; i < n; ++i) {
    if (st.child_count[static_cast<std::size_t>(i)] != 0) continue;
    for (int c = 0; c < st.nchunks; ++c) st.chunk_ready(i, c);
  }
  w.run();
  if (st.done_nodes != n) fail("scenario: allreduce did not complete everywhere");

  AllreduceStats out;
  out.bytes = bytes;
  out.total_us = st.t_end - t0;
  out.bandwidth_mb_s = out.total_us > 0.0 ? static_cast<double>(bytes) / out.total_us : 0.0;
  const double expect = static_cast<double>(n);
  out.values_ok = true;
  for (int i = 0; i < n && out.values_ok; ++i) {
    const auto& a = st.acc[static_cast<std::size_t>(i)];
    // Full check on the root, endpoints elsewhere (exact: integer sums).
    if (i == 0) {
      for (double v : a) out.values_ok = out.values_ok && v == expect;
    } else {
      out.values_ok = a.front() == expect && a.back() == expect;
    }
  }
  return out;
}

// ---- Multicolor rectangle broadcast ---------------------------------------

namespace {

struct BcastHdr {
  std::uint32_t chunk = 0;
  std::uint16_t color = 0;
};

struct BcastState {
  ScenarioWorld* w = nullptr;
  int n = 0;
  int colors = 0;
  std::size_t chunk = 0;
  std::vector<std::size_t> color_off;    // [color] slice offset in payload
  std::vector<std::size_t> color_bytes;  // [color] slice length
  const MulticolorRectBcast* plan = nullptr;
  std::vector<std::byte> payload;                       // root's source
  std::vector<std::vector<std::byte>> rx;               // [node*colors+color]
  std::vector<std::size_t> received;                    // [node]
  std::vector<std::vector<std::byte>>* out = nullptr;
  std::size_t per_node_total = 0;
  std::uint64_t chunks = 0;  // verified chunk landings, all nodes
  int done_nodes = 0;
  double t_end = 0.0;

  std::size_t len(int color, int c) const {
    return std::min(chunk, color_bytes[static_cast<std::size_t>(color)] -
                               static_cast<std::size_t>(c) * chunk);
  }

  void send_chunk(int node, int color, int c, const std::byte* src) {
    BcastHdr hdr{static_cast<std::uint32_t>(c), static_cast<std::uint16_t>(color)};
    // Child edges carry the torus hint of the tree's *claimed* directed
    // link: in extent-2 rings both directions reach the child, and without
    // the hint the router would collapse the dimension's two colors onto
    // one wire, halving the aggregate.
    for (const MulticolorRectBcast::Child& e : plan->children(color, node)) {
      pami::SendParams p;
      p.dispatch = kDisBcast;
      p.dest = pami::Endpoint{e.node, 0};
      p.header = &hdr;
      p.header_bytes = sizeof(hdr);
      p.data = src;
      p.data_bytes = len(color, c);
      p.hints = e.hints;
      send_from(*w, node, p);
    }
  }

  void landed(int node, int color, int c) {
    const std::byte* land = rx[static_cast<std::size_t>(node * colors + color)].data();
    const std::size_t l = len(color, c);
    send_chunk(node, color, c, land);  // forward before accounting: pipelining
    // Cut-through integrity: every landed chunk must equal the root's
    // bytes at this (color, chunk) slot — a relay bug (wrong offset, stale
    // landing buffer, crossed chunk ids) dies at the first bad hop instead
    // of surfacing as a scrambled final payload.
    if (std::memcmp(land,
                    payload.data() + color_off[static_cast<std::size_t>(color)] +
                        static_cast<std::size_t>(c) * chunk,
                    l) != 0) {
      fail("scenario: rect-bcast chunk payload mismatch");
    }
    ++chunks;
    if (out != nullptr) {
      std::memcpy((*out)[static_cast<std::size_t>(node)].data() +
                      color_off[static_cast<std::size_t>(color)] +
                      static_cast<std::size_t>(c) * chunk,
                  land, l);
    }
    received[static_cast<std::size_t>(node)] += l;
    if (received[static_cast<std::size_t>(node)] == per_node_total) {
      if (++done_nodes == n - 1) t_end = w->now_us();
    }
  }
};

}  // namespace

BcastStats scenario_rect_bcast(ScenarioWorld& w, std::size_t bytes, int colors,
                               std::size_t chunk_bytes,
                               std::vector<std::vector<std::byte>>* payload_out) {
  if (chunk_bytes == 0) fail("scenario: rect-bcast chunk must be positive");
  const int n = w.nodes();
  // The same cached, validated plan coll::rectangle_broadcast relays on.
  const auto plan =
      pami::coll::rect_plan(*w.world().geometries().world_geometry(), w.machine().geometry(),
                            /*root_node=*/0);
  colors = std::max(1, std::min(colors, plan->colors()));

  BcastState st;
  st.w = &w;
  st.n = n;
  st.colors = colors;
  st.chunk = chunk_bytes;
  st.plan = plan.get();
  st.per_node_total = bytes;
  st.out = payload_out;

  // Slice the payload across the trees in use.
  st.color_off.resize(static_cast<std::size_t>(colors));
  st.color_bytes.resize(static_cast<std::size_t>(colors));
  const std::size_t base = bytes / static_cast<std::size_t>(colors);
  std::size_t off = 0;
  for (int c = 0; c < colors; ++c) {
    std::size_t l = base + (static_cast<std::size_t>(c) < bytes % static_cast<std::size_t>(colors) ? 1 : 0);
    st.color_off[static_cast<std::size_t>(c)] = off;
    st.color_bytes[static_cast<std::size_t>(c)] = l;
    off += l;
  }

  st.payload.resize(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    st.payload[i] = static_cast<std::byte>(splitmix64(i) & 0xff);
  }
  st.rx.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(colors), {});
  for (int node = 1; node < n; ++node) {
    for (int c = 0; c < colors; ++c) {
      st.rx[static_cast<std::size_t>(node * colors + c)].resize(st.chunk);
    }
  }
  st.received.assign(static_cast<std::size_t>(n), 0);
  if (payload_out != nullptr) {
    payload_out->assign(static_cast<std::size_t>(n), std::vector<std::byte>(bytes));
  }

  BcastState* s = &st;
  for (int i = 0; i < n; ++i) {
    w.ctx(i).set_dispatch(
        kDisBcast, [s](pami::Context& ctx, const void* header, std::size_t header_bytes,
                       const void* pipe, std::size_t pipe_bytes, std::size_t total,
                       pami::Endpoint, pami::RecvDescriptor* recv) {
          BcastHdr hdr;
          if (header_bytes != sizeof(hdr)) fail("scenario: bad broadcast header");
          std::memcpy(&hdr, header, sizeof(hdr));
          const int node = ctx.client().task();
          const int color = hdr.color;
          const int c2 = static_cast<int>(hdr.chunk);
          std::byte* land = s->rx[static_cast<std::size_t>(node * s->colors + color)].data();
          if (recv == nullptr) {
            if (pipe_bytes != total) fail("scenario: truncated broadcast chunk");
            std::memcpy(land, pipe, total);
            s->landed(node, color, c2);
            return;
          }
          recv->buffer = land;
          recv->bytes = total;
          recv->on_complete = [s, node, color, c2] { s->landed(node, color, c2); };
        });
  }

  const double t0 = w.now_us();
  // The root streams every chunk of every color; each color rides its own
  // edge-disjoint tree, so the root drives all its outgoing links at once.
  for (int c = 0; c < colors; ++c) {
    const std::size_t cb = st.color_bytes[static_cast<std::size_t>(c)];
    const int nchunks = cb == 0 ? 0 : static_cast<int>((cb + st.chunk - 1) / st.chunk);
    for (int k = 0; k < nchunks; ++k) {
      st.send_chunk(0, c, k,
                    st.payload.data() + st.color_off[static_cast<std::size_t>(c)] +
                        static_cast<std::size_t>(k) * st.chunk);
    }
  }
  w.run();
  if (n > 1 && st.done_nodes != n - 1) fail("scenario: broadcast did not complete");
  if (payload_out != nullptr) {
    (*payload_out)[0] = st.payload;  // root's copy, for uniform verification
  }

  BcastStats out;
  out.colors = colors;
  out.total_us = st.t_end - t0;
  out.bandwidth_mb_s = out.total_us > 0.0 ? static_cast<double>(bytes) / out.total_us : 0.0;
  out.max_link_occupancy = w.net_pvars()[obs::Pvar::SimLinkMaxOccupancy];
  out.chunks = st.chunks;
  return out;
}

// ---- Adversarial traffic ---------------------------------------------------

namespace {

struct SinkState {
  ScenarioWorld* w = nullptr;
  std::uint64_t expected = 0;
  std::uint64_t got = 0;
  double t_end = 0.0;
};

void register_sink(ScenarioWorld& w, SinkState* s, int node) {
  w.ctx(node).set_dispatch(
      kDisSink, [s](pami::Context&, const void*, std::size_t, const void* pipe,
                    std::size_t pipe_bytes, std::size_t total, pami::Endpoint,
                    pami::RecvDescriptor*) {
        if (pipe == nullptr || pipe_bytes != total) fail("scenario: sink expects single packets");
        s->got += total;
        if (s->got == s->expected) s->t_end = s->w->now_us();
      });
}

/// Stream `bytes` from `src` to `dst` as single-packet messages.
void stream_small(ScenarioWorld& w, int src, int dst, std::size_t bytes,
                  const std::byte* scratch) {
  while (bytes > 0) {
    const std::size_t l = std::min(bytes, kSmallMsgBytes);
    pami::SendParams p;
    p.dispatch = kDisSink;
    p.dest = pami::Endpoint{dst, 0};
    p.data = scratch;
    p.data_bytes = l;
    send_from(w, src, p);
    bytes -= l;
  }
}

TrafficStats traffic_stats(ScenarioWorld& w, const obs::PvarSnapshot& before, double t0,
                           double t_end, std::uint64_t payload) {
  TrafficStats out;
  out.total_us = t_end - t0;
  out.aggregate_mb_s =
      out.total_us > 0.0 ? static_cast<double>(payload) / out.total_us : 0.0;
  const obs::PvarSnapshot now = w.net_pvars();
  out.max_link_occupancy = now[obs::Pvar::SimLinkMaxOccupancy];
  out.deliver_retries = (now - before)[obs::Pvar::SimDeliverRetries];
  return out;
}

}  // namespace

TrafficStats scenario_hotspot(ScenarioWorld& w, std::size_t bytes_per_node) {
  const int n = w.nodes();
  SinkState st;
  st.w = &w;
  st.expected = static_cast<std::uint64_t>(n - 1) * bytes_per_node;
  register_sink(w, &st, 0);

  std::vector<std::byte> scratch(kSmallMsgBytes, std::byte{0x5a});
  const obs::PvarSnapshot before = w.net_pvars();
  const double t0 = w.now_us();
  for (int src = 1; src < n; ++src) stream_small(w, src, 0, bytes_per_node, scratch.data());
  w.run();
  if (st.got != st.expected) fail("scenario: hotspot lost traffic");
  return traffic_stats(w, before, t0, st.t_end, st.expected);
}

TrafficStats scenario_all_to_all(ScenarioWorld& w, std::size_t bytes_per_peer, int rounds) {
  const int n = w.nodes();
  if (n < 2) return {};
  SinkState st;
  st.w = &w;
  for (int i = 0; i < n; ++i) register_sink(w, &st, i);

  std::vector<std::byte> scratch(kSmallMsgBytes, std::byte{0xa5});
  const obs::PvarSnapshot before = w.net_pvars();
  const double t0 = w.now_us();
  std::uint64_t payload = 0;
  for (int r = 0; r < rounds; ++r) {
    // A seeded shift permutation per round: everyone sends, everyone
    // receives, and each round completes before the next (incast pressure
    // within a round, fresh pattern across rounds).
    const int shift =
        1 + static_cast<int>(splitmix64(w.machine().options().sim_seed.value_or(0) +
                                        static_cast<std::uint64_t>(r)) %
                             static_cast<std::uint64_t>(n - 1));
    st.expected += static_cast<std::uint64_t>(n) * bytes_per_peer;
    payload += static_cast<std::uint64_t>(n) * bytes_per_peer;
    for (int src = 0; src < n; ++src) {
      stream_small(w, src, (src + shift) % n, bytes_per_peer, scratch.data());
    }
    w.run();
    if (st.got != st.expected) fail("scenario: all-to-all lost traffic");
  }
  return traffic_stats(w, before, t0, st.t_end, payload);
}

// ---- Classroute churn ------------------------------------------------------

ChurnStats scenario_classroute_churn(ScenarioWorld& w, int count) {
  const hw::TorusGeometry& g = w.machine().geometry();
  pami::GeometryRegistry& reg = w.world().geometries();
  ChurnStats out;
  double ping_sum = 0.0;
  int pings = 0;

  // Slice planes/slabs off the longest dimension: every rectangle is
  // axial-eligible and the keys are distinct, so each optimize() call
  // competes for one of the 14 user classroute slots.
  int slice_dim = 0;
  for (int d = 1; d < hw::kTorusDims; ++d) {
    if (g.dims()[static_cast<std::size_t>(d)] > g.dims()[static_cast<std::size_t>(slice_dim)]) {
      slice_dim = d;
    }
  }
  const int extent = g.dims()[static_cast<std::size_t>(slice_dim)];

  for (int k = 0; k < count; ++k) {
    hw::TorusRectangle rect = hw::TorusRectangle::whole_machine(g);
    const int lo = extent > 1 ? k % extent : 0;
    const int hi = std::min(extent - 1, lo + (k / std::max(1, extent)) % 2);
    rect.lo[static_cast<std::size_t>(slice_dim)] = lo;
    rect.hi[static_cast<std::size_t>(slice_dim)] = std::max(lo, hi);

    auto geo = reg.get_or_create(0xC0FFEE00ULL + static_cast<std::uint64_t>(k),
                                 pami::Topology::axial(g, rect, w.machine().ppn()));
    ++out.geometries;
    const int before = reg.routes_in_use();
    if (reg.optimize(*geo)) {
      ++out.optimized;
      // A successful optimize that did not grow the in-use count recycled
      // an LRU victim's slot.
      if (reg.routes_in_use() == before) ++out.evictions;
    }

    if (k % 4 == 3) {
      // Interleave real point-to-point traffic across the churn: the data
      // path must not care that classroutes are being reprogrammed.
      const int src = g.node_of(rect.lo);
      const int dst = g.node_of(rect.hi);
      if (src != dst) {
        ping_sum += scenario_one_way_us(w, src, dst, 512);
        ++pings;
      }
    }
  }
  out.routes_in_use = reg.routes_in_use();
  out.ping_us_mean = pings > 0 ? ping_sum / pings : 0.0;
  return out;
}

// ---- One-way latency -------------------------------------------------------

double scenario_one_way_us(ScenarioWorld& w, int src, int dst, std::size_t bytes) {
  struct PingState {
    ScenarioWorld* w = nullptr;
    std::vector<std::byte> land;
    double t_end = -1.0;
  };
  PingState st;
  st.w = &w;
  st.land.resize(std::max<std::size_t>(bytes, 1));
  PingState* s = &st;
  w.ctx(dst).set_dispatch(
      kDisPing, [s](pami::Context&, const void*, std::size_t, const void* pipe,
                    std::size_t pipe_bytes, std::size_t total, pami::Endpoint,
                    pami::RecvDescriptor* recv) {
        if (recv == nullptr) {
          if (pipe_bytes != total) fail("scenario: truncated ping");
          s->t_end = s->w->now_us();
          return;
        }
        recv->buffer = s->land.data();
        recv->bytes = total;
        recv->on_complete = [s] { s->t_end = s->w->now_us(); };
        (void)pipe;
      });

  std::vector<std::byte> payload(std::max<std::size_t>(bytes, 1), std::byte{0x42});
  const double t0 = w.now_us();
  pami::SendParams p;
  p.dispatch = kDisPing;
  p.dest = pami::Endpoint{dst, 0};
  p.data = payload.data();
  p.data_bytes = bytes;
  send_from(w, src, p);
  w.run();
  if (st.t_end < 0.0) fail("scenario: ping never landed");
  return st.t_end - t0;
}

}  // namespace pamix::sim
