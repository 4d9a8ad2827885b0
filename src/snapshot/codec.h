// Value-type codecs shared by the member save/restore hooks.
//
// Header-only free functions encoding the simulator's plain value types
// (flits, packets, routes, ring queues, delay pipes, RNG engines) with the
// Writer/Reader primitives. Subsystem classes with private state implement
// their own save/restore members and delegate the value-type fields here,
// so every field is encoded exactly one way repo-wide.
#pragma once

#include "common/ring.h"
#include "common/rng.h"
#include "link/pipe.h"
#include "metrics/histogram.h"
#include "packet/packet.h"
#include "routing/routing.h"
#include "snapshot/buffer.h"

namespace rair::snapshot {

inline void saveFlit(Writer& w, const Flit& f) {
  w.u64(f.pkt);
  w.i32(f.src);
  w.i32(f.dst);
  w.u16(static_cast<std::uint16_t>(f.app));
  w.u8(static_cast<std::uint8_t>(f.msgClass));
  w.u8(static_cast<std::uint8_t>(f.type));
  w.u16(f.seq);
  w.u16(f.pktFlits);
  w.u16(f.hops);
  w.u64(f.createCycle);
}

inline void restoreFlit(Reader& r, Flit& f) {
  f.pkt = r.u64();
  f.src = r.i32();
  f.dst = r.i32();
  f.app = static_cast<AppId>(r.u16());
  f.msgClass = static_cast<MsgClass>(r.u8());
  f.type = static_cast<FlitType>(r.u8());
  f.seq = r.u16();
  f.pktFlits = r.u16();
  f.hops = r.u16();
  f.createCycle = r.u64();
}

inline void savePacket(Writer& w, const Packet& p) {
  w.u64(p.id);
  w.i32(p.src);
  w.i32(p.dst);
  w.u16(static_cast<std::uint16_t>(p.app));
  w.u8(static_cast<std::uint8_t>(p.msgClass));
  w.u16(p.numFlits);
  w.u64(p.createCycle);
  w.u64(p.injectCycle);
  w.u64(p.ejectCycle);
  w.u16(p.hops);
}

inline void restorePacket(Reader& r, Packet& p) {
  p.id = r.u64();
  p.src = r.i32();
  p.dst = r.i32();
  p.app = static_cast<AppId>(r.u16());
  p.msgClass = static_cast<MsgClass>(r.u8());
  p.numFlits = r.u16();
  p.createCycle = r.u64();
  p.injectCycle = r.u64();
  p.ejectCycle = r.u64();
  p.hops = r.u16();
}

inline void saveRoute(Writer& w, const RouteResult& rt) {
  w.u8(static_cast<std::uint8_t>(rt.adaptiveDirs[0]));
  w.u8(static_cast<std::uint8_t>(rt.adaptiveDirs[1]));
  w.i32(rt.numAdaptive);
  w.u8(static_cast<std::uint8_t>(rt.escapeDir));
  w.boolean(rt.ejecting);
}

inline void restoreRoute(Reader& r, RouteResult& rt) {
  rt.adaptiveDirs[0] = static_cast<Dir>(r.u8());
  rt.adaptiveDirs[1] = static_cast<Dir>(r.u8());
  rt.numAdaptive = r.i32();
  rt.escapeDir = static_cast<Dir>(r.u8());
  rt.ejecting = r.boolean();
}

/// Ring contents front-to-back (a FixedRing or a RingQueue); `elem`
/// encodes one element. Capacity is configuration, not state, and is not
/// captured.
template <typename Ring, typename F>
void saveRing(Writer& w, const Ring& q, F&& elem) {
  w.u64(q.size());
  for (std::size_t i = 0; i < q.size(); ++i) elem(w, q[i]);
}

/// Refills `q` from saveRing's bytes. A FixedRing must hold the saved
/// count within its capacity; a RingQueue grows to it.
template <typename Ring, typename F>
void restoreRing(Reader& r, Ring& q, F&& elem) {
  q.clear();
  const std::uint64_t n = r.u64();
  if constexpr (requires { q.reserve(std::size_t{}); })
    q.reserve(static_cast<std::size_t>(n));
  else
    RAIR_CHECK_MSG(n <= q.capacity(),
                   "snapshot restore: saved queue exceeds its capacity");
  for (std::uint64_t i = 0; i < n; ++i) {
    typename Ring::value_type v{};
    elem(r, v);
    q.push_back(std::move(v));
  }
}

/// DelayPipe entries with their absolute arrival cycles (latency itself is
/// construction-time configuration).
template <typename T, typename F>
void saveDelayPipe(Writer& w, const DelayPipe<T>& pipe, F&& elem) {
  w.u64(pipe.size());
  for (std::size_t i = 0; i < pipe.size(); ++i) {
    const auto& [arrival, v] = pipe.entry(i);
    w.u64(arrival);
    elem(w, v);
  }
}

template <typename T, typename F>
void restoreDelayPipe(Reader& r, DelayPipe<T>& pipe, F&& elem) {
  pipe.clearForRestore();
  const std::uint64_t n = r.u64();
  RAIR_CHECK_MSG(n <= pipe.capacity(),
                 "snapshot restore: saved pipe exceeds its capacity");
  for (std::uint64_t i = 0; i < n; ++i) {
    const Cycle arrival = r.u64();
    T v{};
    elem(r, v);
    pipe.pushAbsolute(arrival, std::move(v));
  }
}

inline void saveFlitMsg(Writer& w, const FlitMsg& m) {
  saveFlit(w, m.flit);
  w.i32(m.vc);
}

inline void restoreFlitMsg(Reader& r, FlitMsg& m) {
  restoreFlit(r, m.flit);
  m.vc = r.i32();
}

inline void saveCreditMsg(Writer& w, const CreditMsg& m) { w.i32(m.vc); }

inline void restoreCreditMsg(Reader& r, CreditMsg& m) { m.vc = r.i32(); }

inline void saveHistogram(Writer& w, const metrics::Histogram& h) {
  const auto s = h.rawState();
  w.u64(s.count);
  w.f64(s.sum);
  w.f64(s.sumSq);
  w.f64(s.min);
  w.f64(s.max);
  for (const std::uint64_t b : s.buckets) w.u64(b);
}

inline void restoreHistogram(Reader& r, metrics::Histogram& h) {
  metrics::Histogram::RawState s;
  s.count = r.u64();
  s.sum = r.f64();
  s.sumSq = r.f64();
  s.min = r.f64();
  s.max = r.f64();
  for (auto& b : s.buckets) b = r.u64();
  h.setRawState(s);
}

inline void saveRng(Writer& w, const Xoshiro256StarStar& rng) {
  for (const std::uint64_t word : rng.state()) w.u64(word);
}

inline void restoreRng(Reader& r, Xoshiro256StarStar& rng) {
  std::array<std::uint64_t, 4> s;
  for (auto& word : s) word = r.u64();
  rng.setState(s);
}

}  // namespace rair::snapshot
