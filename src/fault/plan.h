// Deterministic fault plans: timed, serializable fault events.
//
// A FaultPlan is an ordered list of cycle-stamped events (link outages,
// router-port stalls, credit loss, NIC injection freezes). Plans are plain
// data: they can be built programmatically, parsed from a small text
// format (one event per line, see parse()), encoded canonically for
// scenario keys and snapshots, and compared for equality. The injector
// that applies a plan to a running simulation lives in fault/injector.h;
// this header deliberately depends only on common/ and topology/ so the
// oracle can consume the FaultView interface without linking the
// simulator.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "topology/mesh.h"

namespace rair::snapshot {
class Writer;
class Reader;
}  // namespace rair::snapshot

namespace rair::fault {

enum class FaultKind : std::uint8_t {
  LinkDown = 0,   ///< kill both directions of the channel (node, dir)
  LinkUp,         ///< restore the channel (node, dir)
  PortStall,      ///< router `node` stops winning SA toward out-port `dir`
  PortUnstall,    ///< release the stall
  CreditLoss,     ///< destroy `count` credits of (node, out-port dir, vc)
  InjectFreeze,   ///< NIC `node` stops claiming VCs and injecting flits
  InjectThaw,     ///< release the freeze
  /// Corrupt the next `count` flits entering the wire of router `node`'s
  /// output channel toward `dir` (CRC failure at the receiver). Requires
  /// the retransmission link layer — recoverable transient faults, unlike
  /// the outage kinds above.
  CorruptFlit,
  /// Soft-reset router `node`: every buffered/in-progress packet inside
  /// the router is dropped with credit refunds and its incident channels
  /// go down until the paired Recover. Under the retransmission link
  /// layer the neighbors' replay buffers redeliver the lost flits after
  /// recovery; under the ideal layer it behaves as a node outage.
  Reset,
  /// Bring a reset router back up (a lone Recover is a harmless no-op).
  Recover,
};

std::string_view faultKindName(FaultKind k);

/// One scheduled fault. Field use depends on kind: `dir` names the channel
/// or out-port (never Local), `vc`/`count` are CreditLoss-only.
struct FaultEvent {
  Cycle at = 0;
  FaultKind kind = FaultKind::LinkDown;
  NodeId node = 0;
  Dir dir = Dir::North;
  int vc = 0;
  int count = 1;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// An immutable-once-built schedule of fault events, kept sorted by cycle
/// (stable: same-cycle events apply in insertion order).
class FaultPlan {
 public:
  void add(const FaultEvent& e);

  // Convenience builders for the common paired shapes.
  void linkOutage(Cycle at, NodeId node, Dir dir, Cycle duration);
  void portStall(Cycle at, NodeId node, Dir dir, Cycle duration);
  void injectFreeze(Cycle at, NodeId node, Cycle duration);
  void creditLoss(Cycle at, NodeId node, Dir dir, int vc, int count);
  void corruptFlits(Cycle at, NodeId node, Dir dir, int count);
  void softReset(Cycle at, NodeId node, Cycle duration);

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  const std::vector<FaultEvent>& events() const { return events_; }

  /// Canonical binary encoding (scenario keys, snapshot sections).
  void encode(snapshot::Writer& w) const;
  static FaultPlan decode(snapshot::Reader& r);

  /// Text round-trip. Format, one event per line (blank lines and
  /// #-comments ignored):
  ///   @<cycle> down|up|stall|unstall <node> <N|E|S|W>
  ///   @<cycle> creditloss <node> <N|E|S|W> <vc> <count>
  ///   @<cycle> freeze|thaw <node>
  ///   @<cycle> corrupt <node> <N|E|S|W> <count>
  ///   @<cycle> reset <node> [<duration>]   # duration adds the recover
  ///   @<cycle> recover <node>
  std::string format() const;
  static bool parse(std::string_view text, FaultPlan& out,
                    std::string* error = nullptr);

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

 private:
  std::vector<FaultEvent> events_;
};

/// One event as a line of FaultPlan::format(), without the newline.
std::string formatFaultEvent(const FaultEvent& e);

/// Reads and parses the plan file at `path`; false, with the reason in
/// `error`, when the file cannot be read or a line is malformed.
bool readPlanFile(const std::string& path, FaultPlan& out,
                  std::string* error = nullptr);

/// Degradation accounting surfaced to metrics, campaign records and the
/// CLI. All counters are totals over the run so far.
struct FaultStats {
  std::uint64_t eventsApplied = 0;
  std::uint64_t droppedPackets = 0;   ///< the droppedByFault bucket
  std::uint64_t droppedFlits = 0;
  std::uint64_t reroutes = 0;         ///< WaitingVa resets at topology events
  std::uint64_t unreachablePairs = 0; ///< worst ordered-pair count observed
  std::uint64_t degradedCycles = 0;   ///< cycles with >= 1 dead link
  std::uint64_t recoveryCycles = 0;   ///< outage start -> full restore, summed
  std::uint64_t corruptedFlits = 0;     ///< CRC-failed wire traversals
  std::uint64_t retransmittedFlits = 0; ///< go-back-N replay traversals
  std::uint64_t softResets = 0;         ///< Reset events applied

  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

/// What the simulation oracle needs to know about applied faults so its
/// invariants keep closing: when state was last mutated out-of-band, and
/// how many credits were deliberately destroyed per (node, out-port, vc).
class FaultView {
 public:
  virtual ~FaultView() = default;
  /// Cycle of the most recent topology mutation (purge/reroute), or
  /// kNeverCycle when none happened yet.
  virtual Cycle lastTopologyChange() const = 0;
  /// Credits destroyed by CreditLoss events on router `node`'s output
  /// port `port` (Dir cast to int), VC index `vc`.
  virtual std::uint64_t lostCredits(NodeId node, int port, int vc) const = 0;
};

}  // namespace rair::fault
