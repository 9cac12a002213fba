// pamix::mpi — a compact MPI implemented over PAMI, reproducing the
// MPICH2 "pamid" device of the paper (§IV).
//
// What it implements (the subset the paper's evaluation exercises, plus
// the collectives named as future work):
//   * communicators (world, dup, split), ranks, tag matching with
//     MPI_ANY_SOURCE / MPI_ANY_TAG wildcards;
//   * blocking and nonblocking point-to-point (eager + rendezvous chosen
//     by size), Wait/Test/Waitall with the paper's two-phase waitall;
//   * collectives routed to the PAMI geometry collectives: classroute-
//     accelerated barrier/bcast/reduce/allreduce when the communicator is
//     rectangular and "optimized", software trees otherwise; alltoall,
//     gather, scatter;
//   * the two library builds of Table 2: Classic (one global lock around
//     every call) and ThreadOptimized (fine-grained: one L2-atomic mutex
//     on the receive queues, thread-sharded request pools, lockless
//     context handoff);
//   * MPI_THREAD_SINGLE vs MPI_THREAD_MULTIPLE, with communication
//     threads auto-enabled at THREAD_MULTIPLE (overridable, like the
//     paper's environment variable);
//   * MPIX_Comm_optimize / MPIX_Comm_deoptimize for classroute rotation.
//
// Message ordering: sends between a (communicator, source, destination)
// triple always use the same source context (hash of destination rank and
// communicator id) and destination context (hash of source rank), so PAMI
// delivers them in order; a per-pair sequence number lets the receiver
// reorder the rare commthread-handoff overtakes, keeping MPI ordering
// exact even under THREAD_MULTIPLE.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/client.h"
#include "core/collectives.h"
#include "core/commthread.h"
#include "core/context.h"
#include "core/geometry.h"
#include "runtime/machine.h"

namespace pamix::mpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

enum class Library { Classic, ThreadOptimized };
enum class ThreadLevel { Single, Funneled, Serialized, Multiple };

/// Reduction ops / datatypes, aliased to the collective-network types.
using Op = hw::CombineOp;
using Type = hw::CombineType;

struct MpiConfig {
  Library library = Library::ThreadOptimized;
  /// Messages above this go rendezvous (also applied to the PAMI client).
  std::size_t rendezvous_threshold = 4096;
  int contexts_per_task = 2;
  /// Commthreads at THREAD_MULTIPLE (the paper enables them there by
  /// default; the tristate mirrors the env-var override).
  enum class Commthreads { Auto, ForceOn, ForceOff };
  Commthreads commthreads = Commthreads::Auto;
  /// Commthread count per process; -1 derives it from free hardware
  /// threads as the runtime does (64/node minus one per process).
  int commthread_count = -1;
  /// Scalable endpoints (PAMIX_ENDPOINTS): extra contexts, one per
  /// endpoint, bindable to application threads via Mpi::endpoint(i).
  /// Endpoint contexts sit after the `contexts_per_task` hashed ones and
  /// are never advanced by commthreads or Mpi::progress — their bound
  /// thread owns them outright.
  int endpoints = 0;
  /// PAMIX_EP_FALLBACK: when true (default), traffic routed to a bound
  /// endpoint can still satisfy a global MPI_ANY_SOURCE receive (relaxed
  /// cross-endpoint arbitration, DESIGN.md §12). When false, endpoints
  /// and the global wildcard list never interact.
  bool ep_fallback = true;
};

struct Status {
  int source = kAnySource;
  int tag = kAnyTag;
  std::size_t bytes = 0;
};

class Mpi;
class MpiEndpoint;
class MpiWorld;
struct RequestImpl;
struct CommImpl;

/// MPI_Request: cheap shared handle; complete + released by wait/test.
using Request = std::shared_ptr<RequestImpl>;
/// MPI_Comm: shared communicator handle.
using Comm = std::shared_ptr<CommImpl>;

/// Per-task MPI personality. Obtain from MpiWorld::at(task) on the task's
/// own thread.
class Mpi {
 public:
  Mpi(MpiWorld& world, int task);
  ~Mpi();

  Mpi(const Mpi&) = delete;
  Mpi& operator=(const Mpi&) = delete;

  // --- Init / teardown ------------------------------------------------------
  /// MPI_Init_thread. The granted level is returned (always the requested
  /// one here). THREAD_MULTIPLE enables commthreads per config.
  ThreadLevel init(ThreadLevel requested = ThreadLevel::Single);
  void finalize();
  bool commthreads_active() const { return commthreads_ != nullptr; }
  int commthread_count() const;

  // --- World / communicators -------------------------------------------------
  Comm world() const { return world_comm_; }
  int rank(const Comm& c) const;
  int size(const Comm& c) const;
  Comm dup(const Comm& c);
  /// MPI_Comm_split: collective over `c`.
  Comm split(const Comm& c, int color, int key);
  /// MPIX_Comm_optimize / deoptimize: classroute rotation for rectangular
  /// communicators.
  bool mpix_optimize(const Comm& c);
  /// MPIX rectangle broadcast: the 10-color edge-disjoint spanning-tree
  /// broadcast (Figure 10) over the torus links, for rectangular
  /// communicators (falls back to MPI_Bcast otherwise).
  void mpix_rectangle_bcast(void* buf, std::size_t bytes, int root, const Comm& c);
  void mpix_deoptimize(const Comm& c);
  bool comm_is_optimized(const Comm& c) const;
  /// MPIX collective tuning knobs (process-global, mirroring
  /// PAMIX_COLL_SLICE / PAMIX_COLL_RADIX). Setters must not race an
  /// in-flight collective — every task must observe the same values while
  /// one runs, since they shape the shared round schedule.
  static std::size_t mpix_coll_slice();
  static void mpix_coll_slice(std::size_t bytes);
  static int mpix_coll_radix();
  static void mpix_coll_radix(int radix);

  // --- Point-to-point ---------------------------------------------------------
  Request isend(const void* buf, std::size_t bytes, int dest, int tag, const Comm& c);
  Request irecv(void* buf, std::size_t bytes, int source, int tag, const Comm& c);
  void send(const void* buf, std::size_t bytes, int dest, int tag, const Comm& c);
  void recv(void* buf, std::size_t bytes, int source, int tag, const Comm& c,
            Status* status = nullptr);
  void wait(Request& r, Status* status = nullptr);
  bool test(Request& r, Status* status = nullptr);
  /// MPI_Iprobe: nonblocking check for a matching unexpected message.
  bool iprobe(int source, int tag, const Comm& c, Status* status = nullptr);
  /// MPI_Probe: block until a matching message is available.
  void probe(int source, int tag, const Comm& c, Status* status = nullptr);
  /// Two-phase waitall (paper §IV-A). Allocation-free: compacts the
  /// incomplete requests inside `rs`, which it leaves empty.
  void waitall(std::vector<Request>& rs);

  // --- Collectives -------------------------------------------------------------
  void barrier(const Comm& c);
  void bcast(void* buf, std::size_t bytes, int root, const Comm& c);
  void reduce(const void* send, void* recv, std::size_t count, Type type, Op op, int root,
              const Comm& c);
  void allreduce(const void* send, void* recv, std::size_t count, Type type, Op op,
                 const Comm& c);
  void alltoall(const void* send, void* recv, std::size_t bytes_per_rank, const Comm& c);
  void gather(const void* send, void* recv, std::size_t bytes_per_rank, int root, const Comm& c);
  void scatter(const void* send, void* recv, std::size_t bytes_per_rank, int root,
               const Comm& c);
  void allgather(const void* send, void* recv, std::size_t bytes_per_rank, const Comm& c);
  void reduce_scatter(const void* send, void* recv, std::size_t count_per_rank, Type type,
                      Op op, const Comm& c);
  /// MPI_Sendrecv: paired exchange without deadlock.
  void sendrecv(const void* sendbuf, std::size_t send_bytes, int dest, int sendtag,
                void* recvbuf, std::size_t recv_bytes, int source, int recvtag, const Comm& c,
                Status* status = nullptr);

  // --- Scalable endpoints ------------------------------------------------------
  /// Endpoints configured for this task (MpiConfig::endpoints, 0 when the
  /// matcher runs in list mode). endpoint(i) is valid for i in
  /// [0, endpoint_count()); bind the calling thread before using it.
  int endpoint_count() const { return static_cast<int>(endpoints_.size()); }
  MpiEndpoint& endpoint(int i) { return *endpoints_[static_cast<std::size_t>(i)]; }
  /// Contexts serving the hashed (non-endpoint) path.
  int base_context_count() const { return base_contexts_; }

  // --- Introspection -----------------------------------------------------------
  MpiWorld& mpi_world() { return world_; }
  pami::Client& client() { return client_; }
  std::uint64_t unexpected_messages() const;
  std::uint64_t posted_receives_matched() const;

 private:
  struct Impl;
  class StealWindow;  // blocking-call steal window (mutes commthread wakes)
  friend class MpiEndpoint;

  /// One pass over the hashed contexts. Returns events processed; with
  /// commthreads active a winning trylock+advance is progress *stolen*
  /// from the background thread (paper §V). A blocking caller passes
  /// `steal_recorded` (initially false) so the steal is counted once per
  /// blocking call in comm.steals, not once per pass.
  std::size_t progress(bool* steal_recorded = nullptr);
  void progress_until(const std::function<bool()>& pred);
  /// Blocking wait that steals progress on exactly one hashed context —
  /// the request's bound channel — leaving the others to the commthread
  /// pool. Falls back to the full sweep if the completion does not appear
  /// (defensive: the channel hash and the sender's must agree).
  void wait_on_context(Request& r, int ctx_index);
  pami::Context& context_for_send(const CommImpl& c, int dest_rank);
  void complete_isend(const CommImpl& c, int dest_rank, Request req, const void* buf,
                      std::size_t bytes, int tag);
  /// Ask every bound endpoint (except `except`) to sweep its unexpected
  /// backlog against the global ANY_SOURCE list, via each endpoint
  /// context's lockless work queue (the owner runs it on its next
  /// advance). Called after a wildcard receive publishes.
  void kick_endpoint_scans(int except);

  MpiWorld& world_;
  pami::Client& client_;
  int task_;
  int base_contexts_ = 0;
  ThreadLevel level_ = ThreadLevel::Single;
  bool initialized_ = false;
  Comm world_comm_;
  std::unique_ptr<Impl> impl_;
  std::unique_ptr<pami::CommThreadPool> commthreads_;
  std::vector<std::unique_ptr<MpiEndpoint>> endpoints_;
};

/// One scalable endpoint (MPI-endpoints / MPIX-stream semantics): an
/// explicit object binding one application thread to one PAMI context —
/// and through it one injection/reception FIFO partition, one lock-free
/// matching shard, and one private request pool. Once bound, the
/// exact-match isend/irecv/wait fast path takes no locks and shares no
/// cache lines with other endpoints. Calls from a thread that is not the
/// bound owner fall back to the hashed Mpi path (counted as
/// ep.fallback_sends), as do MPI_ANY_SOURCE receives, which publish on
/// the global serialized wildcard list.
class MpiEndpoint {
 public:
  ~MpiEndpoint();
  MpiEndpoint(const MpiEndpoint&) = delete;
  MpiEndpoint& operator=(const MpiEndpoint&) = delete;

  /// Bind the calling thread to this endpoint (CAS: fails if a different
  /// thread holds the binding; idempotent for the owner).
  bool bind();
  /// Release the binding (owner only; fails from any other thread).
  bool unbind();
  bool bound() const;
  bool bound_to_caller() const;
  int index() const { return index_; }
  pami::Context& context();

  /// Endpoint-addressed send: routed to `dest_ep` at the destination
  /// (same index as this endpoint when -1), skipping the context hash.
  /// Header+payload within the immediate limit go out on the
  /// send-immediate path with bounded injection-drain retry.
  Request isend(const void* buf, std::size_t bytes, int dest, int tag, const Comm& c,
                int dest_ep = -1);
  /// Post a receive on this endpoint's matching shard. MPI_ANY_SOURCE
  /// falls back to the global ordered wildcard list.
  Request irecv(void* buf, std::size_t bytes, int source, int tag, const Comm& c);
  void wait(Request& r, Status* status = nullptr);
  bool test(Request& r, Status* status = nullptr);
  /// Advance this endpoint's context only (owner thread).
  void progress();

 private:
  friend class Mpi;
  MpiEndpoint(Mpi& mpi, int index);
  struct Impl;

  Mpi& mpi_;
  int index_;
  std::unique_ptr<Impl> impl_;
};

/// The SPMD-collective MPI job over a functional machine.
class MpiWorld {
 public:
  explicit MpiWorld(runtime::Machine& machine, MpiConfig config = {});
  ~MpiWorld();

  MpiWorld(const MpiWorld&) = delete;
  MpiWorld& operator=(const MpiWorld&) = delete;

  runtime::Machine& machine() { return machine_; }
  const MpiConfig& config() const { return config_; }
  pami::ClientWorld& client_world() { return *clients_; }

  /// The per-task MPI personality (call on the task's own thread).
  Mpi& at(int task) { return *ranks_[static_cast<std::size_t>(task)]; }

 private:
  runtime::Machine& machine_;
  MpiConfig config_;
  std::unique_ptr<pami::ClientWorld> clients_;
  std::vector<std::unique_ptr<Mpi>> ranks_;
};

}  // namespace pamix::mpi
