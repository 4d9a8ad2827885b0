// rair_metrics: pretty-printer for the files of the dimensional metrics
// subsystem (src/metrics/).
//
//   rair_metrics --inspect FILE
//     Pretty-prints a sink file produced by any instrumented run:
//     <prefix>summary.json, <prefix>series.jsonl (one record per line)
//     or a campaign results .jsonl. The sinks of a campaign cell come from
//     rair_campaign --metrics series --metrics-out PREFIX.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/json.h"

namespace {

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: rair_metrics --inspect FILE\n"
      "\n"
      "Pretty-prints a metrics sink file (summary.json, series.jsonl) or\n"
      "any JSON/JSON-Lines file. Campaign cells write their sinks with\n"
      "rair_campaign --metrics series --metrics-out PREFIX.\n");
}

void prettyPrint(const rair::campaign::JsonValue& v, int indent,
                 std::string* out) {
  using rair::campaign::JsonValue;
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  switch (v.kind()) {
    case JsonValue::Kind::Object: {
      const auto& obj = v.asObject();
      if (obj.empty()) {
        *out += "{}";
        break;
      }
      *out += "{\n";
      for (size_t i = 0; i < obj.size(); ++i) {
        *out += pad + "  \"" + rair::campaign::jsonEscape(obj[i].first) +
                "\": ";
        prettyPrint(obj[i].second, indent + 1, out);
        if (i + 1 < obj.size()) *out += ",";
        *out += "\n";
      }
      *out += pad + "}";
      break;
    }
    case JsonValue::Kind::Array: {
      const auto& arr = v.asArray();
      // Scalar-only arrays stay on one line (the common case: per-app
      // vectors, metric cells).
      bool nested = false;
      for (const auto& e : arr) nested |= e.isObject() || e.isArray();
      if (!nested) {
        *out += v.dump();
        break;
      }
      *out += "[\n";
      for (size_t i = 0; i < arr.size(); ++i) {
        *out += pad + "  ";
        prettyPrint(arr[i], indent + 1, out);
        if (i + 1 < arr.size()) *out += ",";
        *out += "\n";
      }
      *out += pad + "]";
      break;
    }
    default:
      *out += v.dump();
      break;
  }
}

int inspectFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "rair_metrics: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  // Whole-file JSON first (summary.json); fall back to JSON Lines
  // (series.jsonl, campaign results).
  if (auto v = rair::campaign::JsonValue::parse(text)) {
    std::string out;
    prettyPrint(*v, 0, &out);
    std::printf("%s\n", out.c_str());
    return 0;
  }
  size_t lineNo = 0;
  size_t bad = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ++lineNo;
    if (line.empty()) continue;
    if (auto v = rair::campaign::JsonValue::parse(line)) {
      std::string out;
      prettyPrint(*v, 0, &out);
      std::printf("--- record %zu ---\n%s\n", lineNo, out.c_str());
    } else {
      ++bad;
      std::fprintf(stderr, "rair_metrics: %s:%zu: not valid JSON\n",
                   path.c_str(), lineNo);
    }
  }
  if (lineNo == 0) {
    std::fprintf(stderr, "rair_metrics: %s is empty\n", path.c_str());
    return 1;
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 &&
      (std::string(argv[1]) == "--help" || std::string(argv[1]) == "-h")) {
    usage(stdout);
    return 0;
  }
  if (argc != 3 || std::string(argv[1]) != "--inspect") {
    usage(stderr);
    return 2;
  }
  return inspectFile(argv[2]);
}
