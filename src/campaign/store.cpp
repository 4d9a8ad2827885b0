#include "campaign/store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "campaign/json.h"
#include "common/assert.h"

namespace rair::campaign {

CampaignFileData loadCampaignFile(const std::string& path) {
  CampaignFileData data;
  if (path.empty()) return data;
  std::ifstream in(path);
  if (!in) return data;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto v = JsonValue::parse(line);
    if (!v) continue;  // truncated/corrupt line: treat as absent
    const JsonValue* type = v->find("type");
    if (!type || !type->isString()) continue;
    if (type->asString() == "cell") {
      if (auto rec = CellRecord::fromJson(*v)) {
        rec->fromCache = true;
        data.cells[rec->key] = std::move(*rec);
      }
    } else if (type->asString() == "value") {
      const JsonValue* key = v->find("key");
      const JsonValue* value = v->find("value");
      if (key && key->isString() && value && value->isNumber())
        data.values[key->asString()] = value->asNumber();
    }
  }
  return data;
}

std::string valueJsonLine(const std::string& campaign, const std::string& key,
                          double value) {
  JsonValue rec{JsonValue::Object{}};
  rec.set("type", "value");
  rec.set("campaign", campaign);
  rec.set("key", key);
  rec.set("value", JsonValue(value));
  return rec.dump();
}

namespace {

/// Bytes of the `size`-byte file `path` up to and including its last
/// newline (0 when it has none): the length that drops a record cut off
/// mid-line. Returns `size`, keeping everything, when the file cannot be
/// read.
std::uintmax_t lengthThroughLastNewline(const std::string& path,
                                        std::uintmax_t size) {
  std::ifstream in(path, std::ios::binary);
  char buf[4096];
  for (std::uintmax_t end = size; end > 0;) {
    const std::uintmax_t n = std::min<std::uintmax_t>(end, sizeof buf);
    in.seekg(static_cast<std::streamoff>(end - n));
    if (!in.read(buf, static_cast<std::streamsize>(n))) return size;
    for (std::uintmax_t i = n; i > 0; --i)
      if (buf[i - 1] == '\n') return end - n + i;
    end -= n;
  }
  return 0;
}

}  // namespace

JsonlWriter::JsonlWriter(const std::string& path) {
  if (path.empty()) return;
  // A crash can cut the last record off mid-line. loadCampaignFile treats
  // it as absent, so drop it: appending the re-run cell's record onto it
  // would fuse the two into one unparseable line.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (!ec && size > 0) {
    const std::uintmax_t keep = lengthThroughLastNewline(path, size);
    if (keep != size) std::filesystem::resize_file(path, keep, ec);
  }
  file_ = std::fopen(path.c_str(), "a");
  RAIR_CHECK_MSG(file_ != nullptr, "cannot open campaign results file");
}

JsonlWriter::~JsonlWriter() {
  if (file_) std::fclose(file_);
}

void JsonlWriter::writeLine(const std::string& line) {
  if (!file_) return;
  const std::lock_guard<std::mutex> lock(mu_);
  const std::string out = line + "\n";
  std::fwrite(out.data(), 1, out.size(), file_);
  std::fflush(file_);
}

}  // namespace rair::campaign
