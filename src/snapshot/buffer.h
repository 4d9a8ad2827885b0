// Deterministic binary serialization buffers and snapshot container I/O.
//
// A snapshot is a flat sequence of named sections, each holding the
// little-endian fixed-width encoding of one subsystem's state (router 12,
// NIC 3, the packet ledger, ...). Named sections buy diff granularity: the
// rair_snapshot CLI and the divergence bisector compare section by section
// and report *which* piece of state first differs, not just that bytes do.
//
// The on-disk container prefixes the payload with a header carrying a
// format version (container layout), a state version (meaning of the
// section bodies), the canonical scenario key the state belongs to, the
// cycle it was taken at, and an FNV-1a-64 payload hash — a load refuses
// mismatched versions and corrupted payloads instead of restoring garbage.
// Files are written atomically (temp file + rename) so an interrupted
// writer never leaves a truncated snapshot behind.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

namespace rair::snapshot {

/// Container layout version (magic, header, section framing).
inline constexpr std::uint32_t kFormatVersion = 1;

/// FNV-1a 64-bit over `n` bytes, chainable through `seed`.
std::uint64_t fnv1a64(const void* data, std::size_t n,
                      std::uint64_t seed = 0xCBF29CE484222325ull);

/// Append-only little-endian encoder with named sections.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { putLe(v); }
  void u32(std::uint32_t v) { putLe(v); }
  void u64(std::uint64_t v) { putLe(v); }
  void i32(std::int32_t v) { putLe(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { putLe(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void bytes(const void* data, std::size_t n);
  void str(std::string_view s);

  /// Opens a named section; every write until the matching endSection()
  /// lands in its body. Sections do not nest.
  void beginSection(std::string_view name);
  void endSection();

  const std::vector<std::uint8_t>& payload() const {
    RAIR_CHECK_MSG(sectionStart_ == kNoSection, "unclosed snapshot section");
    return buf_;
  }

 private:
  static constexpr std::size_t kNoSection = ~std::size_t{0};

  template <typename T>
  void putLe(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::vector<std::uint8_t> buf_;
  std::size_t sectionStart_ = kNoSection;  ///< offset of the body-length slot
};

/// Strict decoder over a payload produced by Writer: section names must be
/// requested in the exact order they were written, and each body must be
/// consumed completely. Any mismatch is a RAIR_CHECK failure — a snapshot
/// that passed the header hash but decodes out of step is a version bug,
/// not a recoverable condition.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& payload)
      : Reader(payload.data(), payload.size()) {}

  std::uint8_t u8() { return take(); }
  std::uint16_t u16() { return getLe<std::uint16_t>(); }
  std::uint32_t u32() { return getLe<std::uint32_t>(); }
  std::uint64_t u64() { return getLe<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean() { return u8() != 0; }
  void bytes(void* out, std::size_t n);
  std::string str();

  void beginSection(std::string_view name);
  void endSection();

  bool atEnd() const { return pos_ == size_; }
  std::size_t pos() const { return pos_; }

 private:
  std::uint8_t take() {
    RAIR_CHECK_MSG(pos_ < size_, "snapshot payload truncated");
    return data_[pos_++];
  }

  template <typename T>
  T getLe() {
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v |= static_cast<T>(take()) << (8 * i);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::size_t sectionEnd_ = 0;
  bool inSection_ = false;
};

/// Identity of a snapshot: what state layout it uses, which scenario it
/// belongs to, and when it was taken.
struct SnapshotHeader {
  std::uint32_t stateVersion = 0;  ///< sim/snapshot::kStateVersion at save
  std::uint64_t scenarioKey = 0;   ///< warm or full canonical scenario hash
  Cycle cycle = 0;                 ///< completed cycles at capture
};

struct LoadedSnapshot {
  SnapshotHeader header;
  std::vector<std::uint8_t> payload;
};

/// Writes header + payload atomically (a temp file unique to this writer
/// in the same directory, then rename). Returns false on any I/O failure.
bool writeSnapshotFile(const std::string& path, const SnapshotHeader& header,
                       const std::vector<std::uint8_t>& payload);

/// Reads and validates a snapshot file: magic, format version, payload
/// hash and size. Returns nullopt for missing, foreign or corrupt files.
std::optional<LoadedSnapshot> readSnapshotFile(const std::string& path);

/// One section of a payload, as listed by the dump/diff tooling.
struct SectionInfo {
  std::string name;
  std::size_t offset = 0;  ///< of the body within the payload
  std::size_t size = 0;    ///< body bytes
};

/// Walks a payload's section framing without decoding bodies. RAIR_CHECKs
/// on malformed framing (only call on hash-validated payloads).
std::vector<SectionInfo> listSections(const std::vector<std::uint8_t>& payload);

/// Creates `dir` if missing (single level, like mkdir -p for one
/// component). Returns false when the directory cannot be made.
bool ensureDir(const std::string& dir);

/// Removes a file, ignoring a missing one.
void removeFile(const std::string& path);

}  // namespace rair::snapshot
