#include "pfsem/obs/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>

#include "pfsem/util/error.hpp"

namespace pfsem::obs {

namespace {

// ---------------------------------------------------------------- parser

struct JValue {
  enum class T : std::uint8_t { Null, Bool, Num, Str, Arr, Obj };
  T t = T::Null;
  std::string scalar;  ///< Str content, Num lexeme, or "true"/"false"
  std::vector<JValue> arr;
  std::vector<std::pair<std::string, JValue>> obj;  ///< insertion order

  [[nodiscard]] const JValue* find(std::string_view key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] double num() const { return std::strtod(scalar.c_str(), nullptr); }
};

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  JValue parse() {
    JValue v = value();
    skip_ws();
    require(pos_ == s_.size(), "obs-diff: trailing bytes after JSON value");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    require(pos_ < s_.size(), "obs-diff: unexpected end of JSON");
    return s_[pos_];
  }
  void expect(char c) {
    require(pos_ < s_.size() && s_[pos_] == c,
            std::string("obs-diff: expected '") + c + "' at byte " +
                std::to_string(pos_));
    ++pos_;
  }

  JValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        JValue v;
        v.t = JValue::T::Str;
        v.scalar = string();
        return v;
      }
      case 't': return keyword("true", JValue::T::Bool);
      case 'f': return keyword("false", JValue::T::Bool);
      case 'n': return keyword("null", JValue::T::Null);
      default: return number();
    }
  }

  JValue keyword(std::string_view word, JValue::T t) {
    require(s_.substr(pos_, word.size()) == word,
            "obs-diff: malformed JSON keyword");
    pos_ += word.size();
    JValue v;
    v.t = t;
    v.scalar = word;
    return v;
  }

  JValue number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    bool digits = false;
    auto digit_run = [&] {
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
        ++pos_;
        digits = true;
      }
    };
    digit_run();
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      digit_run();
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
      digit_run();
    }
    require(digits, "obs-diff: malformed JSON number at byte " +
                        std::to_string(start));
    JValue v;
    v.t = JValue::T::Num;
    v.scalar.assign(s_.substr(start, pos_ - start));
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      require(pos_ < s_.size(), "obs-diff: unterminated JSON string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      require(pos_ < s_.size(), "obs-diff: unterminated JSON escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          require(pos_ + 4 <= s_.size(), "obs-diff: truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              require(false, "obs-diff: malformed \\u escape");
            }
          }
          // The exporter only emits \u00XX (control bytes); map anything
          // wider to '?' rather than growing a UTF-8 encoder here.
          out += cp <= 0xFF ? static_cast<char>(cp) : '?';
          break;
        }
        default: require(false, "obs-diff: unknown JSON escape");
      }
    }
  }

  JValue array() {
    expect('[');
    JValue v;
    v.t = JValue::T::Arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JValue object() {
    expect('{');
    JValue v;
    v.t = JValue::T::Obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.obj.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

/// Canonical re-serialization for exact structural comparison (objects in
/// stored order — the exporter writes deterministically sorted output).
std::string canon(const JValue& v) {
  switch (v.t) {
    case JValue::T::Null:
    case JValue::T::Bool:
    case JValue::T::Num: return v.scalar;
    case JValue::T::Str: return "\"" + v.scalar + "\"";
    case JValue::T::Arr: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.arr.size(); ++i) {
        if (i) out += ",";
        out += canon(v.arr[i]);
      }
      return out + "]";
    }
    case JValue::T::Obj: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, val] : v.obj) {
        if (!first) out += ",";
        first = false;
        out += "\"" + k + "\":" + canon(val);
      }
      return out + "}";
    }
  }
  return "";
}

// ------------------------------------------------------------------ diff

struct Differ {
  DiffOptions opts;
  DiffResult out;

  void regress(std::string line) {
    out.ok = false;
    out.regressions.push_back(std::move(line));
  }
  void note(std::string line) { out.notes.push_back(std::move(line)); }

  [[nodiscard]] static double rel(double a, double b) {
    const double denom = std::max({std::fabs(a), std::fabs(b), 1.0});
    return std::fabs(a - b) / denom;
  }

  /// Threshold-gate one numeric quantity (missing values compare as 0).
  void gate(const std::string& what, double a, double b) {
    if (a == b) return;
    const double r = rel(a, b);
    auto line = what + ": " + trim_num(a) + " vs " + trim_num(b) +
                " (rel " + trim_num(r) + ")";
    if (r > opts.threshold) {
      regress(std::move(line));
    } else {
      note(std::move(line));
    }
  }

  static std::string trim_num(double v) {
    if (v == static_cast<double>(static_cast<long long>(v))) {
      return std::to_string(static_cast<long long>(v));
    }
    std::string s = std::to_string(v);
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
    return s;
  }

  /// Exact comparison of one "counters"/"gauges" map under "stable".
  void exact_metric_map(const char* section, const JValue* a,
                        const JValue* b) {
    std::map<std::string, std::pair<const JValue*, const JValue*>> merged;
    if (a != nullptr) {
      for (const auto& [k, v] : a->obj) merged[k].first = &v;
    }
    if (b != nullptr) {
      for (const auto& [k, v] : b->obj) merged[k].second = &v;
    }
    for (const auto& [name, pair] : merged) {
      const auto& [va, vb] = pair;
      if (va == nullptr || vb == nullptr) {
        regress("stable " + std::string(section) + " " + name +
                ": present only in " + (va != nullptr ? "A" : "B"));
      } else if (canon(*va) != canon(*vb)) {
        regress("stable " + std::string(section) + " " + name + ": " +
                canon(*va) + " != " + canon(*vb));
      }
    }
  }

  /// Threshold-gated comparison of a volatile "counters"/"gauges" map.
  void gated_metric_map(const char* section, const JValue* a,
                        const JValue* b) {
    std::set<std::string> names;
    if (a != nullptr) {
      for (const auto& [k, v] : a->obj) names.insert(k);
    }
    if (b != nullptr) {
      for (const auto& [k, v] : b->obj) names.insert(k);
    }
    for (const auto& name : names) {
      const JValue* va = a != nullptr ? a->find(name) : nullptr;
      const JValue* vb = b != nullptr ? b->find(name) : nullptr;
      const double x = va != nullptr ? va->num() : 0.0;
      const double y = vb != nullptr ? vb->num() : 0.0;
      gate("volatile " + std::string(section) + " " + name, x, y);
    }
  }

  void ledger_rows(const JValue* a, const JValue* b) {
    std::map<std::string, std::pair<const JValue*, const JValue*>> rows;
    auto collect = [&](const JValue* side, bool is_a) {
      if (side == nullptr) return;
      for (const JValue& row : side->arr) {
        const JValue* file = row.find("file");
        if (file == nullptr) continue;
        auto& slot = rows[file->scalar];
        (is_a ? slot.first : slot.second) = &row;
      }
    };
    collect(a, true);
    collect(b, false);
    for (const auto& [file, pair] : rows) {
      const auto& [ra, rb] = pair;
      if (ra == nullptr || rb == nullptr) {
        regress("ledger row " + file + ": present only in " +
                (ra != nullptr ? "A" : "B"));
        continue;
      }
      for (const char* field :
           {"ranks", "hottest_rank", "hottest_rank_stall_ns"}) {
        const JValue* fa = ra->find(field);
        const JValue* fb = rb->find(field);
        gate("ledger " + file + " " + field, fa != nullptr ? fa->num() : 0.0,
             fb != nullptr ? fb->num() : 0.0);
      }
      const JValue* ca = ra->find("classes");
      const JValue* cb = rb->find("classes");
      std::set<std::string> classes;
      if (ca != nullptr) {
        for (const auto& [k, v] : ca->obj) classes.insert(k);
      }
      if (cb != nullptr) {
        for (const auto& [k, v] : cb->obj) classes.insert(k);
      }
      for (const auto& cls : classes) {
        const JValue* cell_a = ca != nullptr ? ca->find(cls) : nullptr;
        const JValue* cell_b = cb != nullptr ? cb->find(cls) : nullptr;
        std::set<std::string> fields;
        if (cell_a != nullptr) {
          for (const auto& [k, v] : cell_a->obj) fields.insert(k);
        }
        if (cell_b != nullptr) {
          for (const auto& [k, v] : cell_b->obj) fields.insert(k);
        }
        for (const auto& field : fields) {
          const JValue* fa = cell_a != nullptr ? cell_a->find(field) : nullptr;
          const JValue* fb = cell_b != nullptr ? cell_b->find(field) : nullptr;
          gate("ledger " + file + " " + cls + "." + field,
               fa != nullptr ? fa->num() : 0.0,
               fb != nullptr ? fb->num() : 0.0);
        }
      }
    }
  }

  void manifest(const JValue* a, const JValue* b) {
    std::set<std::string> keys;
    if (a != nullptr) {
      for (const auto& [k, v] : a->obj) keys.insert(k);
    }
    if (b != nullptr) {
      for (const auto& [k, v] : b->obj) keys.insert(k);
    }
    for (const auto& key : keys) {
      const JValue* va = a != nullptr ? a->find(key) : nullptr;
      const JValue* vb = b != nullptr ? b->find(key) : nullptr;
      const std::string sa = va != nullptr ? va->scalar : "<absent>";
      const std::string sb = vb != nullptr ? vb->scalar : "<absent>";
      if (sa != sb) {
        note("manifest " + key + ": \"" + sa + "\" vs \"" + sb + "\"");
      }
    }
  }
};

}  // namespace

DiffResult diff_obs_json(std::string_view a_text, std::string_view b_text,
                         const DiffOptions& opts) {
  const JValue a = Parser(a_text).parse();
  const JValue b = Parser(b_text).parse();
  require(a.t == JValue::T::Obj && b.t == JValue::T::Obj,
          "obs-diff: input is not an obs JSON export");
  const JValue* va = a.find("pfsem_obs_version");
  const JValue* vb = b.find("pfsem_obs_version");
  require(va != nullptr && vb != nullptr,
          "obs-diff: input is missing pfsem_obs_version");

  Differ d{opts, {}};
  if (va->scalar != vb->scalar) {
    d.regress("pfsem_obs_version: " + va->scalar + " != " + vb->scalar);
    return std::move(d.out);  // formats differ; field diffs would be noise
  }

  d.manifest(a.find("manifest"), b.find("manifest"));

  const JValue* sa = a.find("stable");
  const JValue* sb = b.find("stable");
  d.exact_metric_map("counter", sa != nullptr ? sa->find("counters") : nullptr,
                     sb != nullptr ? sb->find("counters") : nullptr);
  d.exact_metric_map("gauge", sa != nullptr ? sa->find("gauges") : nullptr,
                     sb != nullptr ? sb->find("gauges") : nullptr);
  d.exact_metric_map("hist", sa != nullptr ? sa->find("hists") : nullptr,
                     sb != nullptr ? sb->find("hists") : nullptr);
  d.ledger_rows(sa != nullptr ? sa->find("ledger") : nullptr,
                sb != nullptr ? sb->find("ledger") : nullptr);

  const JValue* ua = a.find("volatile");
  const JValue* ub = b.find("volatile");
  d.gated_metric_map("counter", ua != nullptr ? ua->find("counters") : nullptr,
                     ub != nullptr ? ub->find("counters") : nullptr);
  d.gated_metric_map("gauge", ua != nullptr ? ua->find("gauges") : nullptr,
                     ub != nullptr ? ub->find("gauges") : nullptr);

  return std::move(d.out);
}

}  // namespace pfsem::obs
