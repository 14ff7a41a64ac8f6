// json_check - validate a JSON file written by the telemetry exporters.
//
// Parses the file with the same strict parser the tests use and optionally
// requires object keys to be present. A required key may be a dotted path
// ("stats.decode_cache_hits") which descends through nested objects. A path
// may also carry an assertion:
//
//   path          key must exist (any value)
//   path=value    value must equal `value` - string compare for JSON
//                 strings / bools / null, numeric compare for numbers
//   path>num      value must be a JSON number strictly greater than num
//
// The bench-smoke and trace-smoke ctest steps run this over freshly emitted
// files, so a writer regression (broken escaping, truncated output, dropped
// field) fails the suite instead of silently producing unreadable artifacts,
// and gates like autotune_rediscovers_winner assert the actual result values
// ("summary.best_config=SoAoaS+unroll128+icm", "summary.pruned_fraction>0").
//
//   json_check <file> [path[=value|>num] ...]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/json.hpp"

namespace {

// Render a scalar node the way the `=` assertion compares it, for messages.
std::string describe(const telemetry::JsonValue& node) {
  if (node.is_string()) return "\"" + node.as_string() + "\"";
  return node.dump();
}

// `=` equality: strings compare raw (no quotes in the expectation), numbers
// compare numerically so "3" matches 3.0, bools/null compare against their
// JSON spelling. Containers never match - asserting on a whole object is a
// check-writing error we want loud.
bool equals(const telemetry::JsonValue& node, const std::string& want) {
  if (node.is_string()) return node.as_string() == want;
  if (node.is_number()) {
    char* end = nullptr;
    const double v = std::strtod(want.c_str(), &end);
    if (end == want.c_str() || *end != '\0') return false;
    return node.as_number() == v;
  }
  if (node.is_bool()) return want == (node.as_bool() ? "true" : "false");
  if (node.is_null()) return want == "null";
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: json_check <file> [path[=value|>num] ...]\n");
    return 2;
  }
  std::ifstream is(argv[1]);
  if (!is) {
    std::fprintf(stderr, "json_check: cannot read %s\n", argv[1]);
    return 1;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::optional<telemetry::JsonValue> doc =
      telemetry::JsonValue::parse(buf.str());
  if (!doc) {
    std::fprintf(stderr, "json_check: %s is not valid JSON\n", argv[1]);
    return 1;
  }
  for (int a = 2; a < argc; ++a) {
    const std::string arg = argv[a];
    // Split off an assertion suffix first: the path is everything before the
    // first '=' or '>', so values containing dots (or '+', as in kernel
    // labels) never confuse the path walk.
    const std::size_t op = arg.find_first_of("=>");
    const std::string path = arg.substr(0, op);
    const telemetry::JsonValue* node = &*doc;
    std::size_t begin = 0;
    bool found = true;
    while (found) {
      const std::size_t dot = path.find('.', begin);
      const std::string key = path.substr(
          begin, dot == std::string::npos ? std::string::npos : dot - begin);
      node = node->is_object() ? node->find(key) : nullptr;
      found = node != nullptr;
      if (dot == std::string::npos) break;
      begin = dot + 1;
    }
    if (!found) {
      std::fprintf(stderr, "json_check: %s: missing key \"%s\"\n", argv[1],
                   path.c_str());
      return 1;
    }
    if (op == std::string::npos) continue;
    const std::string want = arg.substr(op + 1);
    if (arg[op] == '=') {
      if (!equals(*node, want)) {
        std::fprintf(stderr,
                     "json_check: %s: key \"%s\" is %s, expected \"%s\"\n",
                     argv[1], path.c_str(), describe(*node).c_str(),
                     want.c_str());
        return 1;
      }
    } else {  // '>'
      char* end = nullptr;
      const double bound = std::strtod(want.c_str(), &end);
      if (end == want.c_str() || *end != '\0') {
        std::fprintf(stderr,
                     "json_check: bad assertion \"%s\" (\"%s\" is not a "
                     "number)\n",
                     arg.c_str(), want.c_str());
        return 2;
      }
      if (!node->is_number() || !(node->as_number() > bound)) {
        std::fprintf(stderr,
                     "json_check: %s: key \"%s\" is %s, expected > %s\n",
                     argv[1], path.c_str(), describe(*node).c_str(),
                     want.c_str());
        return 1;
      }
    }
  }
  std::printf("json_check: %s ok (%zu bytes)\n", argv[1], buf.str().size());
  return 0;
}
