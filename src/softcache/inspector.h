// Inspector: on-demand deep snapshots of live cache state.
//
// Counters (obs::MetricsRegistry) say how much work happened; the Inspector
// says what the caches HOLD right now: tcache occupancy maps (every resident
// rewritten block with its edges and pin state), superblock-cache contents
// and chain graphs, per-shard memoized translations with their fleet demand
// heat, content-store residency, and each session's copy-on-write overlay
// footprint. Snapshots serialize as deterministic JSON — fixed key order,
// container-order rows, integers only — so two snapshots of identical state
// are byte-identical and `sctop --diff` is meaningful.
//
// Three trigger modes, all wired by tools/srun.cpp:
//   * on demand        srun --inspect=PATH          (final state, scope full)
//   * periodically     srun --inspect-every=N       (every N guest cycles at
//                      a fleet-quiescent point — the round-robin scheduler's
//                      inter-step gap, or the threaded scheduler's safepoint)
//   * on fault/recovery  a "fault" snapshot after a faulted run, and a
//                      server-only "recovery" snapshot from the crash-restart
//                      exclusive section (other clients keep running, so
//                      client state is off-limits there).
//
// Thread safety: the Inspector only reads; the CALLER guarantees quiescence
// (see MultiClientSystem::set_inspection_hook / set_recovery_hook). Scope
// kServerOnly restricts reads to server-side state for the recovery case.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace sc::vm {
class Machine;
}

namespace sc::softcache {

class CacheController;
class MemoryController;
class MultiClientSystem;

class Inspector {
 public:
  // Snapshot breadth: kFull walks every client plus the server; kServerOnly
  // (crash-recovery hook) walks only server-side state.
  enum class Scope { kFull, kServerOnly };

  // A solo SoftCacheSystem is inspected through its fleet().
  explicit Inspector(MultiClientSystem* fleet) : fleet_(fleet) {}

  // Writes one snapshot document. `reason` is recorded verbatim ("final",
  // "periodic", "fault", "recovery"); each call bumps the sequence number.
  void WriteJson(std::ostream& out, const std::string& reason,
                 Scope scope = Scope::kFull);

  // WriteJson to a file; false (with a stderr note) if the file won't open.
  bool WriteFile(const std::string& path, const std::string& reason,
                 Scope scope = Scope::kFull);

  uint64_t snapshots_taken() const { return seq_; }

 private:
  void WriteClient(std::ostream& out, uint32_t id, const vm::Machine& machine,
                   CacheController& cc);
  void WriteServer(std::ostream& out, const MemoryController& mc);

  MultiClientSystem* fleet_;
  uint64_t seq_ = 0;
};

}  // namespace sc::softcache
