#include "sim/simulator.h"

#include <cinttypes>
#include <cstdio>

#include "common/assert.h"
#include "snapshot/codec.h"

namespace rair {

const char* terminationName(Termination t) {
  switch (t) {
    case Termination::Drained: return "drained";
    case Termination::DrainLimit: return "drain_limit";
    case Termination::ProgressTimeout: return "progress_timeout";
    case Termination::AboveKnee: return "above_knee";
    case Termination::Abandoned: return "abandoned";
  }
  return "unknown";
}

std::optional<Termination> terminationFromName(std::string_view name) {
  if (name == "drained") return Termination::Drained;
  if (name == "drain_limit") return Termination::DrainLimit;
  if (name == "progress_timeout") return Termination::ProgressTimeout;
  if (name == "above_knee") return Termination::AboveKnee;
  if (name == "abandoned") return Termination::Abandoned;
  return std::nullopt;
}

Simulator::Simulator(const Mesh& mesh, const RegionMap& regions,
                     SimConfig config, const ArbiterPolicy& policy,
                     int numApps)
    : mesh_(&mesh),
      config_(config),
      net_(std::make_unique<Network>(mesh, regions, config.net,
                                     config.routing, policy)),
      stats_(numApps) {
  RAIR_CHECK_MSG(config_.shardThreads >= 1, "shardThreads must be >= 1");
  engine_ = std::make_unique<ShardEngine>(
      *net_, static_cast<NicEvents&>(*this), config_.shardThreads);
  snapTripwire_.sim = this;
}

void Simulator::SnapshotTripwire::onCycleBegin(Cycle now) {
  if (now == savePoint || (every != 0 && now != 0 && now % every == 0))
    hook(*sim, now);
}

void Simulator::setSnapshotHook(SnapshotHook hook, Cycle savePoint,
                                Cycle every) {
  observers_.detach(&snapTripwire_);
  snapTripwire_.hook = std::move(hook);
  snapTripwire_.savePoint = savePoint;
  snapTripwire_.every = every;
  if (snapTripwire_.hook) observers_.attach(&snapTripwire_);
}

void Simulator::addSource(std::unique_ptr<TrafficSource> src) {
  sources_.push_back(std::move(src));
}

PacketId Simulator::createPacket(NodeId src, NodeId dst, AppId app,
                                 MsgClass cls, std::uint16_t numFlits) {
  RAIR_CHECK(mesh_->contains(src) && mesh_->contains(dst));
  RAIR_CHECK_MSG(src != dst, "self-addressed packet");
  Packet& p = ledger_.acquire();  // valid until the next pool operation
  p.src = src;
  p.dst = dst;
  p.app = app;
  p.msgClass = cls;
  p.numFlits = numFlits;
  p.createCycle = now_;
  stats_.onPacketCreated(p);
  ++created_;
  const PacketId id = p.id;
  // Reachability gate: on a partitioned (degraded) topology a packet whose
  // destination is unreachable is dropped at creation — after the create
  // accounting, so RNG streams and the created census are unaffected.
  if (faultHook_ != nullptr && !faultHook_->deliverable(src, dst)) {
    faultDropPacket(id);
    return id;
  }
  net_->nic(src).enqueue(p);
  return id;
}

void Simulator::faultDropPacket(PacketId id) {
  RAIR_CHECK_MSG(ledger_.isLive(id), "fault drop of unknown packet");
  Packet p = ledger_.get(id);
  ledger_.release(id);
  stats_.onPacketDropped(p);
  ++droppedByFault_;
  droppedFlitsByFault_ += p.numFlits;
}

void Simulator::injectAt(Cycle when, NodeId src, NodeId dst, AppId app,
                         MsgClass cls, std::uint16_t numFlits) {
  RAIR_CHECK(when >= now_);
  deferred_.push(Deferred{when, src, dst, app, cls, numFlits});
}

void Simulator::onInjected(PacketId id, Cycle when) {
  ledger_.get(id).injectCycle = when;
}

void Simulator::onDelivered(PacketId id, Cycle when, std::uint16_t hops) {
  RAIR_CHECK_MSG(ledger_.isLive(id), "delivery of unknown packet");
  // Copy out and release first: a delivery hook may create packets, which
  // can grow the slab and would invalidate a reference into it.
  Packet p = ledger_.get(id);
  ledger_.release(id);
  p.ejectCycle = when;
  p.hops = hops;
  stats_.onPacketDelivered(p);
  ++delivered_;
  if (stats_.inMeasurementWindow(p.createCycle))
    measuredFlitsDelivered_ += p.numFlits;
  if (deliveryHook_) deliveryHook_(p, *this);
  observers_.notifyDelivery(p);
}

void Simulator::begin() {
  stats_.startMeasurement(config_.warmupCycles);
  stats_.stopMeasurement(config_.warmupCycles + config_.measureCycles);
}

void Simulator::stepCycle() {
  observers_.notifyCycleBegin(now_);
  while (!deferred_.empty() && deferred_.top().when <= now_) {
    const Deferred d = deferred_.top();
    deferred_.pop();
    createPacket(d.src, d.dst, d.app, d.cls, d.numFlits);
  }
  for (auto& src : sources_) src->tick(*this);
  const int moved = engine_->step(now_);
  if (moved > 0 || delivered_ != lastDelivered_ ||
      ledger_.empty()) {
    lastProgress_ = now_;
    lastDelivered_ = delivered_;
  }
  observers_.notifyCycleEnd(now_);
  ++now_;
}

bool Simulator::snapshotSupported() const {
  if (deliveryHook_) return false;
  for (const auto& src : sources_)
    if (!src->snapshotSupported()) return false;
  return true;
}

void Simulator::save(snapshot::Writer& w) const {
  w.beginSection("meta");
  w.i32(mesh_->width());
  w.i32(mesh_->height());
  w.i32(net_->layout().totalVcs());
  w.i32(stats_.numApps());
  w.u32(static_cast<std::uint32_t>(sources_.size()));
  w.endSection();

  w.beginSection("sim");
  w.u64(now_);
  w.u64(created_);
  w.u64(delivered_);
  w.u64(measuredFlitsDelivered_);
  w.u64(droppedByFault_);
  w.u64(droppedFlitsByFault_);
  w.u64(lastProgress_);
  w.u64(lastDelivered_);
  w.endSection();

  w.beginSection("deferred");
  const auto& heap = deferred_.container();
  w.u32(static_cast<std::uint32_t>(heap.size()));
  for (const Deferred& d : heap) {
    w.u64(d.when);
    w.i32(d.src);
    w.i32(d.dst);
    w.u16(static_cast<std::uint16_t>(d.app));
    w.u8(static_cast<std::uint8_t>(d.cls));
    w.u16(d.numFlits);
  }
  w.endSection();

  w.beginSection("ledger");
  ledger_.save(w);
  w.endSection();

  w.beginSection("stats");
  stats_.save(w);
  w.endSection();

  w.beginSection("sources");
  for (const auto& src : sources_) {
    RAIR_CHECK_MSG(src->snapshotSupported(),
                   "save() on a snapshot-ineligible simulation");
    src->saveState(w);
  }
  w.endSection();

  net_->save(w);

  // Pending fault state rides as a trailing optional section: absent for
  // fault-free simulations (including a hook with an empty plan), so their
  // snapshot bytes are identical to a build with no hook attached.
  if (faultHook_ != nullptr && faultHook_->snapshotRelevant()) {
    w.beginSection("fault");
    faultHook_->save(w);
    w.endSection();
  }
}

void Simulator::restore(snapshot::Reader& r) {
  r.beginSection("meta");
  RAIR_CHECK_MSG(r.i32() == mesh_->width() && r.i32() == mesh_->height(),
                 "snapshot restore: mesh mismatch");
  RAIR_CHECK_MSG(r.i32() == net_->layout().totalVcs(),
                 "snapshot restore: VC layout mismatch");
  RAIR_CHECK_MSG(r.i32() == stats_.numApps(),
                 "snapshot restore: app count mismatch");
  RAIR_CHECK_MSG(r.u32() == sources_.size(),
                 "snapshot restore: source count mismatch");
  r.endSection();

  r.beginSection("sim");
  now_ = r.u64();
  created_ = r.u64();
  delivered_ = r.u64();
  measuredFlitsDelivered_ = r.u64();
  droppedByFault_ = r.u64();
  droppedFlitsByFault_ = r.u64();
  lastProgress_ = r.u64();
  lastDelivered_ = r.u64();
  r.endSection();

  r.beginSection("deferred");
  auto& heap = deferred_.container();
  heap.clear();
  const std::uint32_t numDeferred = r.u32();
  heap.reserve(numDeferred);
  for (std::uint32_t i = 0; i < numDeferred; ++i) {
    Deferred d;
    d.when = r.u64();
    d.src = r.i32();
    d.dst = r.i32();
    d.app = static_cast<AppId>(r.u16());
    d.cls = static_cast<MsgClass>(r.u8());
    d.numFlits = r.u16();
    heap.push_back(d);
  }
  r.endSection();

  r.beginSection("ledger");
  ledger_.restore(r);
  r.endSection();

  r.beginSection("stats");
  stats_.restore(r);
  r.endSection();

  r.beginSection("sources");
  for (auto& src : sources_) src->restoreState(r);
  r.endSection();

  net_->restore(r);

  if (!r.atEnd()) {
    RAIR_CHECK_MSG(faultHook_ != nullptr,
                   "snapshot carries fault state but no fault hook is set");
    r.beginSection("fault");
    faultHook_->restore(r);
    r.endSection();
  } else {
    RAIR_CHECK_MSG(faultHook_ == nullptr || !faultHook_->snapshotRelevant(),
                   "fault hook expects a fault section the snapshot lacks");
  }
}

bool Simulator::provenAboveKnee() const {
  const std::vector<AppId>& apps = verdict_->apps;
  std::vector<std::uint64_t> ageSum(apps.size(), 0);
  std::vector<std::uint64_t> inFlight(apps.size(), 0);
  ledger_.forEachLive([&](const Packet& p) {
    if (!stats_.inMeasurementWindow(p.createCycle)) return;
    for (std::size_t i = 0; i < apps.size(); ++i) {
      if (apps[i] == p.app) {
        ageSum[i] += now_ - p.createCycle;
        ++inFlight[i];
      }
    }
  });
  double sum = 0.0;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const LatencyStats& lat = stats_.app(apps[i]).totalLatency;
    const std::uint64_t n = lat.count() + inFlight[i];
    if (n != 0)
      sum += (lat.sum() + static_cast<double>(ageSum[i])) /
             static_cast<double>(n);
  }
  return sum / static_cast<double>(apps.size()) > verdict_->knee;
}

RunResult Simulator::run() {
  const Cycle measureEnd = config_.warmupCycles + config_.measureCycles;
  const Cycle hardStop = measureEnd + config_.drainLimit;
  begin();
  RAIR_CHECK_MSG(!verdict_ || faultHook_ == nullptr,
                 "a knee verdict needs a fault-free run");

  bool drained = false;
  bool stalled = false;
  std::optional<Termination> stopped;

  while (now_ < hardStop) {
    const Cycle cur = now_;
    stepCycle();

    // stepCycle() advanced lastProgress_ to `cur` if this cycle made
    // progress, so the subtraction is 0 on any progressing cycle.
    if (cur - lastProgress_ > config_.progressTimeout) {
      // Deadlock/livelock tripwire. Reported as a structured outcome so a
      // batch driver (e.g. the campaign runner) can record the failure and
      // keep going instead of losing the whole process.
      std::fprintf(stderr,
                   "simulator: no forward progress for %" PRIu64
                   " cycles at cycle %" PRIu64 " with %zu packets in flight\n",
                   static_cast<std::uint64_t>(config_.progressTimeout),
                   static_cast<std::uint64_t>(cur), ledger_.inFlight());
      stalled = true;
      now_ = cur;  // report the cycle the tripwire fired on
      break;
    }

    if (cur + 1 >= measureEnd && stats_.measuredInFlight() == 0) {
      drained = true;
      break;
    }
    if (verdict_ && (cur + 1) % kVerdictEvery == 0) {
      if (verdict_->abandon != nullptr &&
          verdict_->abandon->load(std::memory_order_relaxed)) {
        stopped = Termination::Abandoned;
        break;
      }
      if (cur + 1 >= measureEnd && provenAboveKnee()) {
        stopped = Termination::AboveKnee;
        break;
      }
    }
  }

  RunResult r;
  r.stats = std::move(stats_);
  r.cyclesRun = now_;
  r.fullyDrained = drained;
  r.termination = drained ? Termination::Drained
                  : stalled ? Termination::ProgressTimeout
                            : stopped.value_or(Termination::DrainLimit);
  r.packetsCreated = created_;
  r.packetsDelivered = delivered_;
  r.flitHops = net_->totalFlitsTraversed();
  r.deliveredFlitRate =
      static_cast<double>(measuredFlitsDelivered_) /
      (static_cast<double>(config_.measureCycles) * mesh_->numNodes());
  return r;
}

}  // namespace rair
