#include "fault/plan.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>

#include "common/assert.h"
#include "snapshot/buffer.h"

namespace rair::fault {

namespace {

constexpr std::string_view kKindNames[] = {
    "down", "up", "stall", "unstall", "creditloss", "freeze", "thaw",
    "corrupt", "reset", "recover",
};

bool parseDir(std::string_view tok, Dir& out) {
  if (tok == "N") out = Dir::North;
  else if (tok == "E") out = Dir::East;
  else if (tok == "S") out = Dir::South;
  else if (tok == "W") out = Dir::West;
  else return false;
  return true;
}

std::string_view dirToken(Dir d) {
  switch (d) {
    case Dir::North: return "N";
    case Dir::East: return "E";
    case Dir::South: return "S";
    case Dir::West: return "W";
    default: return "?";
  }
}

template <typename T>
bool parseInt(std::string_view tok, T& out) {
  const auto* end = tok.data() + tok.size();
  const auto res = std::from_chars(tok.data(), end, out);
  return res.ec == std::errc{} && res.ptr == end;
}

bool needsDir(FaultKind k) {
  return k != FaultKind::InjectFreeze && k != FaultKind::InjectThaw &&
         k != FaultKind::Reset && k != FaultKind::Recover;
}

}  // namespace

std::string_view faultKindName(FaultKind k) {
  const auto i = static_cast<std::size_t>(k);
  RAIR_DCHECK(i < std::size(kKindNames));
  return kKindNames[i];
}

void FaultPlan::add(const FaultEvent& e) {
  RAIR_CHECK_MSG(!needsDir(e.kind) || e.dir != Dir::Local,
                 "fault event needs a router-router direction");
  events_.push_back(e);
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
}

void FaultPlan::linkOutage(Cycle at, NodeId node, Dir dir, Cycle duration) {
  RAIR_CHECK(duration >= 1);
  add({at, FaultKind::LinkDown, node, dir, 0, 1});
  add({at + duration, FaultKind::LinkUp, node, dir, 0, 1});
}

void FaultPlan::portStall(Cycle at, NodeId node, Dir dir, Cycle duration) {
  RAIR_CHECK(duration >= 1);
  add({at, FaultKind::PortStall, node, dir, 0, 1});
  add({at + duration, FaultKind::PortUnstall, node, dir, 0, 1});
}

void FaultPlan::injectFreeze(Cycle at, NodeId node, Cycle duration) {
  RAIR_CHECK(duration >= 1);
  add({at, FaultKind::InjectFreeze, node, Dir::North, 0, 1});
  add({at + duration, FaultKind::InjectThaw, node, Dir::North, 0, 1});
}

void FaultPlan::creditLoss(Cycle at, NodeId node, Dir dir, int vc,
                           int count) {
  RAIR_CHECK(count >= 1);
  add({at, FaultKind::CreditLoss, node, dir, vc, count});
}

void FaultPlan::corruptFlits(Cycle at, NodeId node, Dir dir, int count) {
  RAIR_CHECK(count >= 1);
  add({at, FaultKind::CorruptFlit, node, dir, 0, count});
}

void FaultPlan::softReset(Cycle at, NodeId node, Cycle duration) {
  RAIR_CHECK(duration >= 1);
  add({at, FaultKind::Reset, node, Dir::North, 0, 1});
  add({at + duration, FaultKind::Recover, node, Dir::North, 0, 1});
}

void FaultPlan::encode(snapshot::Writer& w) const {
  w.u32(static_cast<std::uint32_t>(events_.size()));
  for (const FaultEvent& e : events_) {
    w.u64(e.at);
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.i32(e.node);
    w.u8(static_cast<std::uint8_t>(e.dir));
    w.i32(e.vc);
    w.i32(e.count);
  }
}

FaultPlan FaultPlan::decode(snapshot::Reader& r) {
  FaultPlan plan;
  const std::uint32_t n = r.u32();
  plan.events_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    FaultEvent e;
    e.at = r.u64();
    e.kind = static_cast<FaultKind>(r.u8());
    e.node = r.i32();
    e.dir = static_cast<Dir>(r.u8());
    e.vc = r.i32();
    e.count = r.i32();
    plan.events_.push_back(e);
  }
  return plan;
}

std::string formatFaultEvent(const FaultEvent& e) {
  std::ostringstream out;
  out << '@' << e.at << ' ' << faultKindName(e.kind) << ' ' << e.node;
  if (needsDir(e.kind)) out << ' ' << dirToken(e.dir);
  if (e.kind == FaultKind::CreditLoss) out << ' ' << e.vc << ' ' << e.count;
  if (e.kind == FaultKind::CorruptFlit) out << ' ' << e.count;
  return out.str();
}

std::string FaultPlan::format() const {
  std::string out;
  for (const FaultEvent& e : events_) out += formatFaultEvent(e) + '\n';
  return out;
}

bool FaultPlan::parse(std::string_view text, FaultPlan& out,
                      std::string* error) {
  const auto fail = [&](std::size_t lineNo, const std::string& msg) {
    if (error)
      *error = "fault plan line " + std::to_string(lineNo) + ": " + msg;
    return false;
  };
  FaultPlan plan;
  std::size_t lineNo = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++lineNo;

    std::vector<std::string_view> toks;
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && (line[i] == ' ' || line[i] == '\t' ||
                                 line[i] == '\r'))
        ++i;
      if (i >= line.size() || line[i] == '#') break;
      const std::size_t start = i;
      while (i < line.size() && line[i] != ' ' && line[i] != '\t' &&
             line[i] != '\r' && line[i] != '#')
        ++i;
      toks.push_back(line.substr(start, i - start));
    }
    if (toks.empty()) continue;
    if (toks.size() < 3 || toks[0].empty() || toks[0][0] != '@')
      return fail(lineNo, "expected '@<cycle> <kind> <node> ...'");

    FaultEvent e;
    if (!parseInt(toks[0].substr(1), e.at))
      return fail(lineNo, "bad cycle");
    bool known = false;
    for (std::size_t k = 0; k < std::size(kKindNames); ++k) {
      if (toks[1] == kKindNames[k]) {
        e.kind = static_cast<FaultKind>(k);
        known = true;
        break;
      }
    }
    if (!known) return fail(lineNo, "unknown fault kind");
    if (!parseInt(toks[2], e.node)) return fail(lineNo, "bad node id");

    std::size_t next = 3;
    if (needsDir(e.kind)) {
      if (toks.size() < 4 || !parseDir(toks[3], e.dir))
        return fail(lineNo, "expected direction N|E|S|W");
      next = 4;
    }
    if (e.kind == FaultKind::CreditLoss) {
      if (toks.size() < next + 2 || !parseInt(toks[next], e.vc) ||
          !parseInt(toks[next + 1], e.count) || e.count < 1)
        return fail(lineNo, "creditloss needs '<vc> <count>'");
      next += 2;
    }
    if (e.kind == FaultKind::CorruptFlit) {
      if (toks.size() < next + 1 || !parseInt(toks[next], e.count) ||
          e.count < 1)
        return fail(lineNo, "corrupt needs '<count>'");
      next += 1;
    }
    if (e.kind == FaultKind::Reset && toks.size() == next + 1) {
      // Sugar: '@c reset <node> <duration>' expands to the reset/recover
      // pair (format() always emits the unsugared one-event lines).
      Cycle duration = 0;
      if (!parseInt(toks[next], duration) || duration < 1)
        return fail(lineNo, "reset duration must be >= 1");
      next += 1;
      plan.add(e);
      plan.add({e.at + duration, FaultKind::Recover, e.node, Dir::North, 0,
                1});
      continue;
    }
    if (toks.size() != next) return fail(lineNo, "trailing tokens");
    plan.add(e);
  }
  out = std::move(plan);
  return true;
}

bool readPlanFile(const std::string& path, FaultPlan& out,
                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open fault plan file for reading";
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return FaultPlan::parse(text.str(), out, error);
}

}  // namespace rair::fault
