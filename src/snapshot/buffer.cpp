#include "snapshot/buffer.h"

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <unistd.h>

namespace rair::snapshot {

namespace {

/// "RAIRSNP1" — 8 bytes of magic at the front of every snapshot file.
constexpr char kMagic[8] = {'R', 'A', 'I', 'R', 'S', 'N', 'P', '1'};

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t n, std::uint64_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  bytes(s.data(), s.size());
}

void Writer::beginSection(std::string_view name) {
  RAIR_CHECK_MSG(sectionStart_ == kNoSection,
                 "snapshot sections do not nest");
  RAIR_CHECK(!name.empty() && name.size() <= 0xffff);
  u16(static_cast<std::uint16_t>(name.size()));
  bytes(name.data(), name.size());
  sectionStart_ = buf_.size();
  u64(0);  // body length, backpatched by endSection()
}

void Writer::endSection() {
  RAIR_CHECK_MSG(sectionStart_ != kNoSection, "endSection without begin");
  const std::uint64_t bodyLen = buf_.size() - sectionStart_ - 8;
  for (std::size_t i = 0; i < 8; ++i)
    buf_[sectionStart_ + i] = static_cast<std::uint8_t>(bodyLen >> (8 * i));
  sectionStart_ = kNoSection;
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

void Reader::bytes(void* out, std::size_t n) {
  RAIR_CHECK_MSG(pos_ + n <= size_, "snapshot payload truncated");
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
}

std::string Reader::str() {
  const std::uint32_t n = u32();
  std::string s(n, '\0');
  bytes(s.data(), n);
  return s;
}

void Reader::beginSection(std::string_view name) {
  RAIR_CHECK_MSG(!inSection_, "snapshot sections do not nest");
  const std::uint16_t len = u16();
  std::string got(len, '\0');
  bytes(got.data(), len);
  RAIR_CHECK_MSG(got == name, "snapshot section order mismatch");
  const std::uint64_t bodyLen = u64();
  RAIR_CHECK_MSG(pos_ + bodyLen <= size_, "snapshot section overruns payload");
  sectionEnd_ = pos_ + static_cast<std::size_t>(bodyLen);
  inSection_ = true;
}

void Reader::endSection() {
  RAIR_CHECK_MSG(inSection_, "endSection without begin");
  RAIR_CHECK_MSG(pos_ == sectionEnd_,
                 "snapshot section body not fully consumed");
  inSection_ = false;
}

bool writeSnapshotFile(const std::string& path, const SnapshotHeader& header,
                       const std::vector<std::uint8_t>& payload) {
  // A writer-unique temp name: two writers of the same path (threads, or
  // processes sharing a cache directory) never interleave into one file,
  // and the rename makes whichever finishes last win whole.
  static std::atomic<std::uint64_t> tmpCounter{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(tmpCounter.fetch_add(1, std::memory_order_relaxed));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;

  Writer head;
  head.bytes(kMagic, sizeof kMagic);
  head.u32(kFormatVersion);
  head.u32(header.stateVersion);
  head.u64(header.scenarioKey);
  head.u64(header.cycle);
  head.u64(fnv1a64(payload.data(), payload.size()));
  head.u64(payload.size());

  const auto& hb = head.payload();
  bool ok = std::fwrite(hb.data(), 1, hb.size(), f) == hb.size();
  ok = ok && (payload.empty() ||
              std::fwrite(payload.data(), 1, payload.size(), f) ==
                  payload.size());
  ok = std::fclose(f) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<LoadedSnapshot> readSnapshotFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;

  std::uint8_t head[8 + 4 + 4 + 8 + 8 + 8 + 8];
  if (std::fread(head, 1, sizeof head, f) != sizeof head) {
    std::fclose(f);
    return std::nullopt;
  }
  Reader r(head, sizeof head);
  char magic[8];
  r.bytes(magic, sizeof magic);
  if (std::memcmp(magic, kMagic, sizeof magic) != 0 ||
      r.u32() != kFormatVersion) {
    std::fclose(f);
    return std::nullopt;
  }
  LoadedSnapshot snap;
  snap.header.stateVersion = r.u32();
  snap.header.scenarioKey = r.u64();
  snap.header.cycle = r.u64();
  const std::uint64_t hash = r.u64();
  const std::uint64_t size = r.u64();
  // Refuse absurd sizes before allocating (a corrupt length field).
  if (size > (std::uint64_t{1} << 32)) {
    std::fclose(f);
    return std::nullopt;
  }
  snap.payload.resize(static_cast<std::size_t>(size));
  const bool ok =
      snap.payload.empty() ||
      std::fread(snap.payload.data(), 1, snap.payload.size(), f) ==
          snap.payload.size();
  std::fclose(f);
  if (!ok || fnv1a64(snap.payload.data(), snap.payload.size()) != hash)
    return std::nullopt;
  return snap;
}

std::vector<SectionInfo> listSections(
    const std::vector<std::uint8_t>& payload) {
  std::vector<SectionInfo> out;
  Reader r(payload);
  while (!r.atEnd()) {
    SectionInfo s;
    const std::uint16_t len = r.u16();
    s.name.resize(len);
    r.bytes(s.name.data(), len);
    const std::uint64_t bodyLen = r.u64();
    s.offset = r.pos();
    s.size = static_cast<std::size_t>(bodyLen);
    std::vector<std::uint8_t> skip(s.size);
    r.bytes(skip.data(), s.size);
    out.push_back(std::move(s));
  }
  return out;
}

bool ensureDir(const std::string& dir) {
  if (dir.empty()) return false;
  if (::mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST) return true;
  return false;
}

void removeFile(const std::string& path) {
  if (!path.empty()) std::remove(path.c_str());
}

}  // namespace rair::snapshot
