#include "job_serde.hh"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <forward_list>
#include <vector>

#include "common/logging.hh"

namespace stsim
{
namespace serde
{

namespace
{

// ---------------------------------------------------------------------------
// Minimal strict JSON DOM + recursive-descent parser. The whole tree
// lives in one flat node buffer in document order: a container's
// members follow it, and each node records the size of its subtree,
// so walking an object's members needs no per-node allocation. Keys
// and scalar tokens are views into the frame; only strings carrying
// escapes are decoded, into the document's own storage. Numbers keep
// their raw token (we never need float JSON numbers: doubles travel
// as hex-float strings); objects preserve key order, and a lookup
// returns a key's first occurrence.
// ---------------------------------------------------------------------------

struct JVal
{
    enum class Kind : std::uint8_t { Null, Bool, Num, Str, Arr, Obj };

    Kind kind = Kind::Null;
    bool b = false;
    std::uint32_t span = 1;  ///< nodes in this subtree, itself included
    std::uint32_t count = 0; ///< members (Kind::Arr / Kind::Obj)
    std::string_view key;    ///< member key, when inside an object
    std::string_view text;   ///< raw token (Num) or decoded string (Str)

    /** First member of a container; advance with next(). */
    const JVal *first() const { return this + 1; }
    const JVal *next() const { return this + span; }

    const JVal *
    find(std::string_view k) const
    {
        if (kind != Kind::Obj)
            return nullptr;
        const JVal *m = first();
        for (std::uint32_t i = 0; i < count; ++i, m = m->next())
            if (m->key == k)
                return m;
        return nullptr;
    }

    const JVal &
    at(std::string_view k) const
    {
        if (kind != Kind::Obj)
            stsim_fatal("serde: '%.*s' looked up on a non-object",
                        static_cast<int>(k.size()), k.data());
        if (const JVal *v = find(k))
            return *v;
        stsim_fatal("serde: missing key '%.*s'",
                    static_cast<int>(k.size()), k.data());
    }

    std::uint64_t
    asU64() const
    {
        if (kind != Kind::Num)
            stsim_fatal("serde: expected an integer");
        const int n = static_cast<int>(text.size());
        // A negative value must not wrap to 2^64-v.
        if (text.empty() || text[0] == '-')
            stsim_fatal("serde: bad integer '%.*s' (must be unsigned)", n,
                        text.data());
        // strtoull's grammar for a sign-free token of [0-9.eE+-]: an
        // optional '+', digits, and saturation at 2^64-1 on overflow.
        const char *p = text.data();
        const char *end = p + text.size();
        if (*p == '+')
            ++p;
        std::uint64_t v = 0;
        auto [ptr, ec] = std::from_chars(p, end, v);
        if (ec == std::errc::result_out_of_range)
            v = UINT64_MAX;
        if (ptr != end || p == end)
            stsim_fatal("serde: bad integer '%.*s'", n, text.data());
        return v;
    }

    unsigned
    asUnsigned() const
    {
        return static_cast<unsigned>(asU64());
    }

    std::size_t
    asSize() const
    {
        return static_cast<std::size_t>(asU64());
    }

    std::uint32_t
    asU32() const
    {
        return static_cast<std::uint32_t>(asU64());
    }

    double
    asDouble() const
    {
        // Doubles are serialized as hex-float strings; accept plain
        // JSON numbers too (hand-written manifests).
        if (kind == Kind::Str || kind == Kind::Num)
            return doubleFromHex(text);
        stsim_fatal("serde: expected a double");
    }

    bool
    asBool() const
    {
        if (kind != Kind::Bool)
            stsim_fatal("serde: expected a bool");
        return b;
    }

    std::string_view
    asStr() const
    {
        if (kind != Kind::Str)
            stsim_fatal("serde: expected a string");
        return text;
    }
};

/** A parsed frame: the node buffer plus any decoded strings. */
struct JDoc
{
    std::vector<JVal> nodes;
    /** Unescaped strings; list nodes never move, so views stay valid. */
    std::forward_list<std::string> decoded;

    const JVal &root() const { return nodes.front(); }
};

class Parser
{
  public:
    explicit Parser(std::string_view s) : s_(s) {}

    /** Parse the whole input; the views in the result point into it. */
    JDoc
    parse()
    {
        // Real frames average well over 8 bytes per node; the cap
        // keeps a hostile megabyte frame from reserving up front.
        doc_.nodes.reserve(std::min<std::size_t>(s_.size() / 8 + 8, 4096));
        value({});
        skipWs();
        if (pos_ != s_.size())
            stsim_fatal("serde: trailing bytes after JSON value");
        return std::move(doc_);
    }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= s_.size())
            stsim_fatal("serde: unexpected end of input");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            stsim_fatal("serde: expected '%c' at offset %zu", c, pos_);
        ++pos_;
    }

    /** Append node @p key : <value at pos_> and its whole subtree. */
    void
    value(std::string_view key)
    {
        const std::size_t at = doc_.nodes.size();
        doc_.nodes.emplace_back().key = key;
        switch (peek()) {
          case '{': object(at); break;
          case '[': array(at); break;
          case '"': node(at).kind = JVal::Kind::Str;
                    node(at).text = string();
                    break;
          case 't':
          case 'f': boolean(at); break;
          case 'n': null(); break;
          default: number(at); break;
        }
        node(at).span = static_cast<std::uint32_t>(doc_.nodes.size() - at);
    }

    JVal &node(std::size_t i) { return doc_.nodes[i]; }

    // The parser recurses per nesting level; a hostile frame of
    // '['/'{"a":' repeated would otherwise overflow the stack, which
    // FatalCaptureScope cannot catch. Real records nest ~5 levels, so
    // 64 is generous.
    void
    enterNested()
    {
        if (++depth_ > kMaxDepth)
            stsim_fatal("serde: JSON nested deeper than %zu levels",
                        kMaxDepth);
    }

    void
    object(std::size_t at)
    {
        expect('{');
        enterNested();
        node(at).kind = JVal::Kind::Obj;
        if (peek() == '}') {
            ++pos_;
            --depth_;
            return;
        }
        for (std::uint32_t n = 1;; ++n) {
            std::string_view key = string();
            expect(':');
            value(key);
            node(at).count = n;
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            --depth_;
            return;
        }
    }

    void
    array(std::size_t at)
    {
        expect('[');
        enterNested();
        node(at).kind = JVal::Kind::Arr;
        if (peek() == ']') {
            ++pos_;
            --depth_;
            return;
        }
        for (std::uint32_t n = 1;; ++n) {
            value({});
            node(at).count = n;
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            --depth_;
            return;
        }
    }

    /** A string token: a view into the input unless it has escapes. */
    std::string_view
    string()
    {
        expect('"');
        const std::size_t start = pos_;
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '"')
                return s_.substr(start, pos_++ - start);
            if (c == '\\')
                return escaped(start);
            ++pos_;
        }
        stsim_fatal("serde: unterminated string");
    }

    /** Slow path of string(): decode from @p start to the close quote. */
    std::string_view
    escaped(std::size_t start)
    {
        std::string &out = doc_.decoded.emplace_front(
            s_.substr(start, pos_ - start));
        while (pos_ < s_.size()) {
            char c = s_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= s_.size())
                    break;
                char e = s_[pos_++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  default:
                    stsim_fatal("serde: unsupported escape '\\%c'", e);
                }
                continue;
            }
            out += c;
        }
        stsim_fatal("serde: unterminated string");
    }

    void
    boolean(std::size_t at)
    {
        node(at).kind = JVal::Kind::Bool;
        if (s_.compare(pos_, 4, "true") == 0) {
            node(at).b = true;
            pos_ += 4;
            return;
        }
        if (s_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            return;
        }
        stsim_fatal("serde: bad literal at offset %zu", pos_);
    }

    void
    null()
    {
        if (s_.compare(pos_, 4, "null") != 0)
            stsim_fatal("serde: bad literal at offset %zu", pos_);
        pos_ += 4;
    }

    void
    number(std::size_t at)
    {
        std::size_t start = pos_;
        if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+'))
            ++pos_;
        while (pos_ < s_.size() &&
               ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '-' ||
                s_[pos_] == '+')) {
            ++pos_;
        }
        if (pos_ == start)
            stsim_fatal("serde: bad token at offset %zu", start);
        node(at).kind = JVal::Kind::Num;
        node(at).text = s_.substr(start, pos_ - start);
    }

    static constexpr std::size_t kMaxDepth = 64;

    std::string_view s_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
    JDoc doc_;
};

// ---------------------------------------------------------------------------
// Writer: appends "key":value pairs with a fixed field order so that
// serialize(parse(serialize(x))) is byte-identical to serialize(x).
// Every record is built in place in one output string; a nested
// object is written by a nested Obj on the same string after key().
// ---------------------------------------------------------------------------

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[20];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void
appendQuoted(std::string &out, std::string_view s)
{
    out += '"';
    std::size_t run = 0; // start of the pending escape-free run
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char *esc = nullptr;
        switch (s[i]) {
          case '"': esc = "\\\""; break;
          case '\\': esc = "\\\\"; break;
          case '\n': esc = "\\n"; break;
          case '\t': esc = "\\t"; break;
          case '\r': esc = "\\r"; break;
          default: continue;
        }
        out.append(s, run, i - run);
        out += esc;
        run = i + 1;
    }
    out.append(s, run);
    out += '"';
}

class Obj
{
  public:
    explicit Obj(std::string &out) : out_(out) { out_ += '{'; }

    /** Open member @p k; the caller appends its value to the result. */
    std::string &
    key(const char *k)
    {
        if (!first_)
            out_ += ',';
        first_ = false;
        out_ += '"';
        out_ += k;
        out_ += "\":";
        return out_;
    }

    void str(const char *k, std::string_view value)
    {
        appendQuoted(key(k), value);
    }

    void u64(const char *k, std::uint64_t value)
    {
        appendU64(key(k), value);
    }

    void boolean(const char *k, bool value)
    {
        key(k) += value ? "true" : "false";
    }

    void dbl(const char *k, double value) { appendDbl(key(k), value); }

    void close() { out_ += '}'; }

    /** A double as its quoted hex-float string. */
    static void
    appendDbl(std::string &out, double d)
    {
        out += '"';
        appendDoubleHex(out, d);
        out += '"';
    }

  private:
    std::string &out_;
    bool first_ = true;
};

void
dblArray(std::string &out, const double *v, std::size_t n)
{
    out += '[';
    for (std::size_t i = 0; i < n; ++i) {
        if (i)
            out += ',';
        Obj::appendDbl(out, v[i]);
    }
    out += ']';
}

void
parseDblArray(const JVal &v, double *out, std::size_t n)
{
    if (v.kind != JVal::Kind::Arr || v.count != n)
        stsim_fatal("serde: expected an array of %zu doubles", n);
    const JVal *e = v.first();
    for (std::size_t i = 0; i < n; ++i, e = e->next())
        out[i] = e->asDouble();
}

// ---------------------------------------------------------------------------
// Enum <-> name maps. To-string reuses the display-name functions the
// rest of the codebase already exposes.
// ---------------------------------------------------------------------------

ConfKind
confKindFromName(std::string_view s)
{
    for (ConfKind k : {ConfKind::None, ConfKind::Bpru, ConfKind::Jrs,
                       ConfKind::Perfect}) {
        if (s == confKindName(k))
            return k;
    }
    stsim_fatal("serde: unknown confKind '%.*s'",
                static_cast<int>(s.size()), s.data());
}

OracleMode
oracleModeFromName(std::string_view s)
{
    for (OracleMode m :
         {OracleMode::None, OracleMode::OracleFetch,
          OracleMode::OracleDecode, OracleMode::OracleSelect}) {
        if (s == oracleModeName(m))
            return m;
    }
    stsim_fatal("serde: unknown oracle mode '%.*s'",
                static_cast<int>(s.size()), s.data());
}

const char *
specModeName(SpecControlMode m)
{
    switch (m) {
      case SpecControlMode::None: return "none";
      case SpecControlMode::Selective: return "selective";
      case SpecControlMode::PipelineGating: return "pipeline-gating";
    }
    return "?";
}

SpecControlMode
specModeFromName(std::string_view s)
{
    for (SpecControlMode m :
         {SpecControlMode::None, SpecControlMode::Selective,
          SpecControlMode::PipelineGating}) {
        if (s == specModeName(m))
            return m;
    }
    stsim_fatal("serde: unknown specControl mode '%.*s'",
                static_cast<int>(s.size()), s.data());
}

BandwidthLevel
bandwidthFromName(std::string_view s)
{
    for (BandwidthLevel l :
         {BandwidthLevel::Full, BandwidthLevel::Half,
          BandwidthLevel::Quarter, BandwidthLevel::Stall}) {
        if (s == bandwidthLevelName(l))
            return l;
    }
    stsim_fatal("serde: unknown bandwidth level '%.*s'",
                static_cast<int>(s.size()), s.data());
}

const char *
gatingStyleName(ClockGatingStyle s)
{
    return s == ClockGatingStyle::cc0 ? "cc0" : "cc3";
}

ClockGatingStyle
gatingStyleFromName(std::string_view s)
{
    if (s == "cc0")
        return ClockGatingStyle::cc0;
    if (s == "cc3")
        return ClockGatingStyle::cc3;
    stsim_fatal("serde: unknown clock-gating style '%.*s'",
                static_cast<int>(s.size()), s.data());
}

const char *
bpredKindName(BpredConfig::Kind k)
{
    return k == BpredConfig::Kind::Gshare ? "gshare" : "bimodal";
}

BpredConfig::Kind
bpredKindFromName(std::string_view s)
{
    if (s == "gshare")
        return BpredConfig::Kind::Gshare;
    if (s == "bimodal")
        return BpredConfig::Kind::Bimodal;
    stsim_fatal("serde: unknown predictor kind '%.*s'",
                static_cast<int>(s.size()), s.data());
}

// ---------------------------------------------------------------------------
// Per-struct serializers. Field order is the declaration order of the
// corresponding struct.
// ---------------------------------------------------------------------------

void
cacheToJson(std::string &out, const CacheConfig &c)
{
    Obj o(out);
    o.str("name", c.name);
    o.u64("sizeBytes", c.sizeBytes);
    o.u64("ways", c.ways);
    o.u64("lineBytes", c.lineBytes);
    o.u64("hitLatency", c.hitLatency);
    o.close();
}

CacheConfig
cacheFromJson(const JVal &v)
{
    CacheConfig c;
    c.name = v.at("name").asStr();
    c.sizeBytes = v.at("sizeBytes").asSize();
    c.ways = v.at("ways").asSize();
    c.lineBytes = v.at("lineBytes").asSize();
    c.hitLatency = v.at("hitLatency").asUnsigned();
    return c;
}

void
memoryToJson(std::string &out, const MemoryConfig &m)
{
    Obj o(out);
    cacheToJson(o.key("il1"), m.il1);
    cacheToJson(o.key("dl1"), m.dl1);
    cacheToJson(o.key("l2"), m.l2);
    o.u64("memLatency", m.memLatency);
    o.u64("tlbEntries", m.tlbEntries);
    o.u64("pageBytes", m.pageBytes);
    o.u64("tlbMissPenalty", m.tlbMissPenalty);
    o.u64("dl1ExtraLatency", m.dl1ExtraLatency);
    o.close();
}

MemoryConfig
memoryFromJson(const JVal &v)
{
    MemoryConfig m;
    m.il1 = cacheFromJson(v.at("il1"));
    m.dl1 = cacheFromJson(v.at("dl1"));
    m.l2 = cacheFromJson(v.at("l2"));
    m.memLatency = v.at("memLatency").asUnsigned();
    m.tlbEntries = v.at("tlbEntries").asSize();
    m.pageBytes = v.at("pageBytes").asSize();
    m.tlbMissPenalty = v.at("tlbMissPenalty").asUnsigned();
    m.dl1ExtraLatency = v.at("dl1ExtraLatency").asUnsigned();
    return m;
}

void
coreToJson(std::string &out, const CoreConfig &c)
{
    Obj o(out);
    o.u64("fetchWidth", c.fetchWidth);
    o.u64("decodeWidth", c.decodeWidth);
    o.u64("issueWidth", c.issueWidth);
    o.u64("commitWidth", c.commitWidth);
    o.u64("maxTakenBranchesPerFetch", c.maxTakenBranchesPerFetch);
    o.u64("ruuSize", c.ruuSize);
    o.u64("lsqSize", c.lsqSize);
    o.u64("numIntAlu", c.numIntAlu);
    o.u64("numIntMult", c.numIntMult);
    o.u64("numMemPorts", c.numMemPorts);
    o.u64("numFpAlu", c.numFpAlu);
    o.u64("numFpMult", c.numFpMult);
    o.u64("pipelineStages", c.pipelineStages);
    o.u64("fetchStages", c.fetchStages);
    o.u64("decodeStages", c.decodeStages);
    o.u64("extraExecLatency", c.extraExecLatency);
    o.u64("extraDl1Latency", c.extraDl1Latency);
    o.u64("extraMispredictPenalty", c.extraMispredictPenalty);
    o.u64("btbMissPenalty", c.btbMissPenalty);
    o.str("oracle", oracleModeName(c.oracle));
    o.close();
}

CoreConfig
coreFromJson(const JVal &v)
{
    CoreConfig c;
    c.fetchWidth = v.at("fetchWidth").asUnsigned();
    c.decodeWidth = v.at("decodeWidth").asUnsigned();
    c.issueWidth = v.at("issueWidth").asUnsigned();
    c.commitWidth = v.at("commitWidth").asUnsigned();
    c.maxTakenBranchesPerFetch =
        v.at("maxTakenBranchesPerFetch").asUnsigned();
    c.ruuSize = v.at("ruuSize").asUnsigned();
    c.lsqSize = v.at("lsqSize").asUnsigned();
    c.numIntAlu = v.at("numIntAlu").asUnsigned();
    c.numIntMult = v.at("numIntMult").asUnsigned();
    c.numMemPorts = v.at("numMemPorts").asUnsigned();
    c.numFpAlu = v.at("numFpAlu").asUnsigned();
    c.numFpMult = v.at("numFpMult").asUnsigned();
    c.pipelineStages = v.at("pipelineStages").asUnsigned();
    c.fetchStages = v.at("fetchStages").asUnsigned();
    c.decodeStages = v.at("decodeStages").asUnsigned();
    c.extraExecLatency = v.at("extraExecLatency").asUnsigned();
    c.extraDl1Latency = v.at("extraDl1Latency").asUnsigned();
    c.extraMispredictPenalty =
        v.at("extraMispredictPenalty").asUnsigned();
    c.btbMissPenalty = v.at("btbMissPenalty").asUnsigned();
    c.oracle = oracleModeFromName(v.at("oracle").asStr());
    return c;
}

void
bpredToJson(std::string &out, const BpredConfig &b)
{
    Obj o(out);
    o.str("kind", bpredKindName(b.kind));
    o.u64("predictorBytes", b.predictorBytes);
    o.u64("btbEntries", b.btbEntries);
    o.u64("btbWays", b.btbWays);
    o.u64("rasEntries", b.rasEntries);
    o.close();
}

BpredConfig
bpredFromJson(const JVal &v)
{
    BpredConfig b;
    b.kind = bpredKindFromName(v.at("kind").asStr());
    b.predictorBytes = v.at("predictorBytes").asSize();
    b.btbEntries = v.at("btbEntries").asSize();
    b.btbWays = v.at("btbWays").asSize();
    b.rasEntries = v.at("rasEntries").asSize();
    return b;
}

void
bpruParamsToJson(std::string &out, const BpruEstimator::Params &p)
{
    Obj o(out);
    o.u64("missInc", p.missInc);
    o.u64("correctDec", p.correctDec);
    o.u64("allocValue", p.allocValue);
    o.u64("tagBits", p.tagBits);
    o.close();
}

BpruEstimator::Params
bpruParamsFromJson(const JVal &v)
{
    BpruEstimator::Params p;
    p.missInc = v.at("missInc").asUnsigned();
    p.correctDec = v.at("correctDec").asUnsigned();
    p.allocValue = v.at("allocValue").asUnsigned();
    p.tagBits = v.at("tagBits").asUnsigned();
    return p;
}

void
actionToJson(std::string &out, const ThrottleAction &a)
{
    Obj o(out);
    o.str("fetch", bandwidthLevelName(a.fetch));
    o.str("decode", bandwidthLevelName(a.decode));
    o.boolean("noSelect", a.noSelect);
    o.close();
}

ThrottleAction
actionFromJson(const JVal &v)
{
    ThrottleAction a;
    a.fetch = bandwidthFromName(v.at("fetch").asStr());
    a.decode = bandwidthFromName(v.at("decode").asStr());
    a.noSelect = v.at("noSelect").asBool();
    return a;
}

void
specControlToJson(std::string &out, const SpecControlConfig &s)
{
    Obj o(out);
    o.str("mode", specModeName(s.mode));
    {
        Obj p(o.key("policy"));
        p.str("name", s.policy.name);
        std::string &lv = p.key("byLevel");
        lv += '[';
        for (std::size_t i = 0; i < s.policy.byLevel.size(); ++i) {
            if (i)
                lv += ',';
            actionToJson(lv, s.policy.byLevel[i]);
        }
        lv += ']';
        p.close();
    }
    o.u64("gatingThreshold", s.gatingThreshold);
    o.close();
}

SpecControlConfig
specControlFromJson(const JVal &v)
{
    SpecControlConfig s;
    s.mode = specModeFromName(v.at("mode").asStr());
    const JVal &pol = v.at("policy");
    s.policy.name = pol.at("name").asStr();
    const JVal &lv = pol.at("byLevel");
    if (lv.kind != JVal::Kind::Arr ||
        lv.count != s.policy.byLevel.size()) {
        stsim_fatal("serde: policy.byLevel must have %zu entries",
                    s.policy.byLevel.size());
    }
    const JVal *e = lv.first();
    for (std::size_t i = 0; i < s.policy.byLevel.size(); ++i, e = e->next())
        s.policy.byLevel[i] = actionFromJson(*e);
    s.gatingThreshold = v.at("gatingThreshold").asUnsigned();
    return s;
}

void
powerToJson(std::string &out, const PowerParams &p)
{
    Obj o(out);
    o.str("style", gatingStyleName(p.style));
    o.dbl("idleFactor", p.idleFactor);
    o.dbl("frequencyHz", p.frequencyHz);
    dblArray(o.key("peakWatts"), p.peakWatts.data(), kNumPUnits);
    dblArray(o.key("ports"), p.ports.data(), kNumPUnits);
    o.close();
}

PowerParams
powerFromJson(const JVal &v)
{
    PowerParams p;
    p.style = gatingStyleFromName(v.at("style").asStr());
    p.idleFactor = v.at("idleFactor").asDouble();
    p.frequencyHz = v.at("frequencyHz").asDouble();
    parseDblArray(v.at("peakWatts"), p.peakWatts.data(), kNumPUnits);
    parseDblArray(v.at("ports"), p.ports.data(), kNumPUnits);
    return p;
}

void
profileToJson(std::string &out, const BenchmarkProfile &p)
{
    Obj o(out);
    o.str("name", p.name);
    o.dbl("targetMissRate", p.targetMissRate);
    o.dbl("condBranchFrac", p.condBranchFrac);
    o.u64("numBlocks", p.numBlocks);
    o.u64("numFuncs", p.numFuncs);
    o.dbl("fracJumpTerm", p.fracJumpTerm);
    o.dbl("fracCallTerm", p.fracCallTerm);
    o.dbl("fracRetTerm", p.fracRetTerm);
    o.dbl("fracLoop", p.fracLoop);
    o.dbl("fracPattern", p.fracPattern);
    o.dbl("fracBiased", p.fracBiased);
    o.dbl("fracChaotic", p.fracChaotic);
    o.dbl("loopPeriodMin", p.loopPeriodMin);
    o.dbl("loopPeriodMax", p.loopPeriodMax);
    o.dbl("biasedMissMin", p.biasedMissMin);
    o.dbl("biasedMissMax", p.biasedMissMax);
    o.dbl("chaoticTakenP", p.chaoticTakenP);
    o.dbl("fracLoad", p.fracLoad);
    o.dbl("fracStore", p.fracStore);
    o.dbl("fracIntMult", p.fracIntMult);
    o.dbl("fracFpAlu", p.fracFpAlu);
    o.dbl("fracFpMult", p.fracFpMult);
    o.dbl("srcChance", p.srcChance);
    o.dbl("depDistP", p.depDistP);
    o.u64("dataFootprintKB", p.dataFootprintKB);
    o.dbl("fracStackAccess", p.fracStackAccess);
    o.dbl("fracStreamAccess", p.fracStreamAccess);
    o.u64("hotDataKB", p.hotDataKB);
    o.dbl("hotDataFrac", p.hotDataFrac);
    o.dbl("blockLenScale", p.blockLenScale);
    o.dbl("biasedTakenFrac", p.biasedTakenFrac);
    o.u64("seed", p.seed);
    o.close();
}

BenchmarkProfile
profileFromJson(const JVal &v)
{
    BenchmarkProfile p;
    p.name = v.at("name").asStr();
    p.targetMissRate = v.at("targetMissRate").asDouble();
    p.condBranchFrac = v.at("condBranchFrac").asDouble();
    p.numBlocks = v.at("numBlocks").asU32();
    p.numFuncs = v.at("numFuncs").asU32();
    p.fracJumpTerm = v.at("fracJumpTerm").asDouble();
    p.fracCallTerm = v.at("fracCallTerm").asDouble();
    p.fracRetTerm = v.at("fracRetTerm").asDouble();
    p.fracLoop = v.at("fracLoop").asDouble();
    p.fracPattern = v.at("fracPattern").asDouble();
    p.fracBiased = v.at("fracBiased").asDouble();
    p.fracChaotic = v.at("fracChaotic").asDouble();
    p.loopPeriodMin = v.at("loopPeriodMin").asDouble();
    p.loopPeriodMax = v.at("loopPeriodMax").asDouble();
    p.biasedMissMin = v.at("biasedMissMin").asDouble();
    p.biasedMissMax = v.at("biasedMissMax").asDouble();
    p.chaoticTakenP = v.at("chaoticTakenP").asDouble();
    p.fracLoad = v.at("fracLoad").asDouble();
    p.fracStore = v.at("fracStore").asDouble();
    p.fracIntMult = v.at("fracIntMult").asDouble();
    p.fracFpAlu = v.at("fracFpAlu").asDouble();
    p.fracFpMult = v.at("fracFpMult").asDouble();
    p.srcChance = v.at("srcChance").asDouble();
    p.depDistP = v.at("depDistP").asDouble();
    p.dataFootprintKB = v.at("dataFootprintKB").asU32();
    p.fracStackAccess = v.at("fracStackAccess").asDouble();
    p.fracStreamAccess = v.at("fracStreamAccess").asDouble();
    p.hotDataKB = v.at("hotDataKB").asU32();
    p.hotDataFrac = v.at("hotDataFrac").asDouble();
    p.blockLenScale = v.at("blockLenScale").asDouble();
    p.biasedTakenFrac = v.at("biasedTakenFrac").asDouble();
    p.seed = v.at("seed").asU64();
    return p;
}

void
coreStatsToJson(std::string &out, const CoreStats &c)
{
    Obj o(out);
    o.u64("cycles", c.cycles);
    o.u64("committedInsts", c.committedInsts);
    o.u64("committedBranches", c.committedBranches);
    o.u64("committedCondBranches", c.committedCondBranches);
    o.u64("condMispredicts", c.condMispredicts);
    o.u64("fetchedInsts", c.fetchedInsts);
    o.u64("fetchedWrongPath", c.fetchedWrongPath);
    o.u64("decodedInsts", c.decodedInsts);
    o.u64("decodedWrongPath", c.decodedWrongPath);
    o.u64("dispatchedInsts", c.dispatchedInsts);
    o.u64("dispatchedWrongPath", c.dispatchedWrongPath);
    o.u64("issuedInsts", c.issuedInsts);
    o.u64("issuedWrongPath", c.issuedWrongPath);
    o.u64("squashes", c.squashes);
    o.u64("squashedInsts", c.squashedInsts);
    o.u64("btbMisfetches", c.btbMisfetches);
    o.u64("rasMispredicts", c.rasMispredicts);
    o.u64("fetchIcacheStall", c.fetchIcacheStall);
    o.u64("fetchRedirectStall", c.fetchRedirectStall);
    o.u64("fetchThrottled", c.fetchThrottled);
    o.u64("decodeThrottled", c.decodeThrottled);
    o.u64("oracleFetchStall", c.oracleFetchStall);
    o.u64("robFullStalls", c.robFullStalls);
    o.u64("lsqFullStalls", c.lsqFullStalls);
    o.u64("noSelectSkips", c.noSelectSkips);
    o.u64("loadsForwarded", c.loadsForwarded);
    o.u64("loadsBlockedByStore", c.loadsBlockedByStore);
    o.u64("oracleSelectSkips", c.oracleSelectSkips);
    o.u64("oracleDecodeDrops", c.oracleDecodeDrops);
    o.close();
}

CoreStats
coreStatsFromJson(const JVal &v)
{
    CoreStats c;
    c.cycles = v.at("cycles").asU64();
    c.committedInsts = v.at("committedInsts").asU64();
    c.committedBranches = v.at("committedBranches").asU64();
    c.committedCondBranches = v.at("committedCondBranches").asU64();
    c.condMispredicts = v.at("condMispredicts").asU64();
    c.fetchedInsts = v.at("fetchedInsts").asU64();
    c.fetchedWrongPath = v.at("fetchedWrongPath").asU64();
    c.decodedInsts = v.at("decodedInsts").asU64();
    c.decodedWrongPath = v.at("decodedWrongPath").asU64();
    c.dispatchedInsts = v.at("dispatchedInsts").asU64();
    c.dispatchedWrongPath = v.at("dispatchedWrongPath").asU64();
    c.issuedInsts = v.at("issuedInsts").asU64();
    c.issuedWrongPath = v.at("issuedWrongPath").asU64();
    c.squashes = v.at("squashes").asU64();
    c.squashedInsts = v.at("squashedInsts").asU64();
    c.btbMisfetches = v.at("btbMisfetches").asU64();
    c.rasMispredicts = v.at("rasMispredicts").asU64();
    c.fetchIcacheStall = v.at("fetchIcacheStall").asU64();
    c.fetchRedirectStall = v.at("fetchRedirectStall").asU64();
    c.fetchThrottled = v.at("fetchThrottled").asU64();
    c.decodeThrottled = v.at("decodeThrottled").asU64();
    c.oracleFetchStall = v.at("oracleFetchStall").asU64();
    c.robFullStalls = v.at("robFullStalls").asU64();
    c.lsqFullStalls = v.at("lsqFullStalls").asU64();
    c.noSelectSkips = v.at("noSelectSkips").asU64();
    c.loadsForwarded = v.at("loadsForwarded").asU64();
    c.loadsBlockedByStore = v.at("loadsBlockedByStore").asU64();
    c.oracleSelectSkips = v.at("oracleSelectSkips").asU64();
    c.oracleDecodeDrops = v.at("oracleDecodeDrops").asU64();
    return c;
}

SimConfig
configFromJVal(const JVal &v)
{
    SimConfig cfg;
    cfg.benchmark = v.at("benchmark").asStr();
    if (const JVal *p = v.find("customProfile")) {
        if (p->kind != JVal::Kind::Null)
            cfg.customProfile = profileFromJson(*p);
    }
    cfg.maxInstructions = v.at("maxInstructions").asU64();
    cfg.warmupInstructions = v.at("warmupInstructions").asU64();
    cfg.runSeed = v.at("runSeed").asU64();
    cfg.core = coreFromJson(v.at("core"));
    cfg.memory = memoryFromJson(v.at("memory"));
    cfg.pipelineDepth = v.at("pipelineDepth").asUnsigned();
    cfg.bpred = bpredFromJson(v.at("bpred"));
    cfg.confKind = confKindFromName(v.at("confKind").asStr());
    cfg.confBytes = v.at("confBytes").asSize();
    cfg.jrsThreshold = v.at("jrsThreshold").asUnsigned();
    cfg.bpruParams = bpruParamsFromJson(v.at("bpruParams"));
    cfg.specControl = specControlFromJson(v.at("specControl"));
    cfg.power = powerFromJson(v.at("power"));
    cfg.finalized = v.at("finalized").asBool();
    return cfg;
}

SimResults
resultsFromJVal(const JVal &v)
{
    SimResults r;
    r.benchmark = v.at("benchmark").asStr();
    r.experiment = v.at("experiment").asStr();
    r.core = coreStatsFromJson(v.at("core"));
    r.ipc = v.at("ipc").asDouble();
    r.seconds = v.at("seconds").asDouble();
    r.avgPowerW = v.at("avgPowerW").asDouble();
    r.energyJ = v.at("energyJ").asDouble();
    r.edProduct = v.at("edProduct").asDouble();
    parseDblArray(v.at("unitEnergyJ"), r.unitEnergyJ.data(),
                  kNumPUnits);
    parseDblArray(v.at("unitWastedJ"), r.unitWastedJ.data(),
                  kNumPUnits);
    parseDblArray(v.at("unitActivity"), r.unitActivity.data(),
                  kNumPUnits);
    r.wastedEnergyJ = v.at("wastedEnergyJ").asDouble();
    r.condMissRate = v.at("condMissRate").asDouble();
    r.spec = v.at("spec").asDouble();
    r.pvn = v.at("pvn").asDouble();
    r.il1MissRate = v.at("il1MissRate").asDouble();
    r.dl1MissRate = v.at("dl1MissRate").asDouble();
    r.l2MissRate = v.at("l2MissRate").asDouble();
    return r;
}

} // namespace

FlatWriter &
FlatWriter::str(const char *k, std::string_view value)
{
    key(k);
    appendQuoted(out_, value);
    return *this;
}

FlatWriter &
FlatWriter::u64(const char *k, std::uint64_t value)
{
    key(k);
    appendU64(out_, value);
    return *this;
}

std::string
FlatWriter::finish()
{
    out_ += '}';
    return std::move(out_);
}

void
FlatWriter::key(const char *k)
{
    if (!first_)
        out_ += ',';
    first_ = false;
    out_ += '"';
    out_ += k;
    out_ += "\":";
}

namespace
{

/** Non-fatal scanner over one flat record; never touches stsim_fatal. */
class FlatScanner
{
  public:
    explicit FlatScanner(std::string_view s) : s_(s) {}

    bool
    scan(std::vector<FlatField> &out)
    {
        out.clear();
        if (!eat('{'))
            return false;
        if (eat('}'))
            return done();
        for (;;) {
            FlatField f;
            if (!string(f.key))
                return false;
            if (!eat(':'))
                return false;
            if (peek() == '"') {
                f.isString = true;
                if (!string(f.value))
                    return false;
            } else if (!integer(f.value)) {
                return false;
            }
            out.push_back(std::move(f));
            if (eat(','))
                continue;
            if (eat('}'))
                return done();
            return false;
        }
    }

  private:
    bool
    done()
    {
        return pos_ == s_.size();
    }

    char
    peek()
    {
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }

    bool
    eat(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    bool
    string(std::string &out)
    {
        if (!eat('"'))
            return false;
        while (pos_ < s_.size()) {
            char c = s_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= s_.size())
                    return false;
                char e = s_[pos_++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  default: return false;
                }
                continue;
            }
            out += c;
        }
        return false;
    }

    bool
    integer(std::string &out)
    {
        std::size_t start = pos_;
        while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9')
            ++pos_;
        if (pos_ == start)
            return false;
        out.assign(s_.substr(start, pos_ - start));
        return true;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
};

} // namespace

ParseOutcome
parseFlat(std::string_view json, std::vector<FlatField> &out)
{
    if (FlatScanner(json).scan(out))
        return ParseOutcome{};
    return ParseOutcome{false, "malformed flat record"};
}

void
appendDoubleHex(std::string &out, double d)
{
    // glibc's "%a", byte for byte: the exact value as [-]0xH.HHHp[+-]E
    // with trailing zero hexits dropped, subnormals as 0x0.HHHp-1022,
    // zero as 0x0p+0, and inf / nan spelled out.
    const auto bits = std::bit_cast<std::uint64_t>(d);
    const unsigned biased = static_cast<unsigned>(bits >> 52) & 0x7ff;
    std::uint64_t mant = bits & ((std::uint64_t{1} << 52) - 1);
    if (bits >> 63)
        out += '-';
    if (biased == 0x7ff) {
        out += mant ? "nan" : "inf";
        return;
    }
    out += biased ? "0x1" : "0x0";
    if (mant) {
        int hexits = 13;
        for (; (mant & 0xf) == 0; mant >>= 4)
            --hexits;
        char buf[13];
        for (int i = hexits - 1; i >= 0; --i, mant >>= 4)
            buf[i] = "0123456789abcdef"[mant & 0xf];
        out += '.';
        out.append(buf, hexits);
    }
    const int exp = biased ? static_cast<int>(biased) - 1023
                           : (bits << 1 ? -1022 : 0);
    out += exp < 0 ? "p-" : "p+";
    appendU64(out, static_cast<std::uint64_t>(exp < 0 ? -exp : exp));
}

std::string
doubleToHex(double d)
{
    std::string out;
    appendDoubleHex(out, d);
    return out;
}

double
doubleFromHex(std::string_view s)
{
    // strtod needs a terminated copy; hex-float tokens fit on the stack.
    char small[64];
    std::string big;
    const char *z = small;
    if (s.size() < sizeof small) {
        std::memcpy(small, s.data(), s.size());
        small[s.size()] = '\0';
    } else {
        big.assign(s);
        z = big.c_str();
    }
    char *end = nullptr;
    double d = std::strtod(z, &end);
    if (!end || *end != '\0' || s.empty())
        stsim_fatal("serde: bad double '%s'", z);
    return d;
}

namespace
{

// Starting capacities of one encoded record, so the usual record is
// built without a reallocation.
constexpr std::size_t kConfigJsonReserve = 4096;
constexpr std::size_t kResultsJsonReserve = 3072;

void
configToJson(std::string &out, const SimConfig &cfg)
{
    Obj o(out);
    o.str("benchmark", cfg.benchmark);
    if (cfg.customProfile)
        profileToJson(o.key("customProfile"), *cfg.customProfile);
    o.u64("maxInstructions", cfg.maxInstructions);
    o.u64("warmupInstructions", cfg.warmupInstructions);
    o.u64("runSeed", cfg.runSeed);
    coreToJson(o.key("core"), cfg.core);
    memoryToJson(o.key("memory"), cfg.memory);
    o.u64("pipelineDepth", cfg.pipelineDepth);
    bpredToJson(o.key("bpred"), cfg.bpred);
    o.str("confKind", confKindName(cfg.confKind));
    o.u64("confBytes", cfg.confBytes);
    o.u64("jrsThreshold", cfg.jrsThreshold);
    bpruParamsToJson(o.key("bpruParams"), cfg.bpruParams);
    specControlToJson(o.key("specControl"), cfg.specControl);
    powerToJson(o.key("power"), cfg.power);
    o.boolean("finalized", cfg.finalized);
    o.close();
}

void
resultsToJson(std::string &out, const SimResults &r)
{
    Obj o(out);
    o.str("benchmark", r.benchmark);
    o.str("experiment", r.experiment);
    coreStatsToJson(o.key("core"), r.core);
    o.dbl("ipc", r.ipc);
    o.dbl("seconds", r.seconds);
    o.dbl("avgPowerW", r.avgPowerW);
    o.dbl("energyJ", r.energyJ);
    o.dbl("edProduct", r.edProduct);
    dblArray(o.key("unitEnergyJ"), r.unitEnergyJ.data(), kNumPUnits);
    dblArray(o.key("unitWastedJ"), r.unitWastedJ.data(), kNumPUnits);
    dblArray(o.key("unitActivity"), r.unitActivity.data(), kNumPUnits);
    o.dbl("wastedEnergyJ", r.wastedEnergyJ);
    o.dbl("condMissRate", r.condMissRate);
    o.dbl("spec", r.spec);
    o.dbl("pvn", r.pvn);
    o.dbl("il1MissRate", r.il1MissRate);
    o.dbl("dl1MissRate", r.dl1MissRate);
    o.dbl("l2MissRate", r.l2MissRate);
    o.close();
}

} // namespace

std::string
toJson(const SimConfig &cfg)
{
    std::string out;
    out.reserve(kConfigJsonReserve);
    configToJson(out, cfg);
    return out;
}

SimConfig
configFromJson(std::string_view json)
{
    return configFromJVal(Parser(json).parse().root());
}

std::string
toJson(const SimJob &job)
{
    std::string out;
    out.reserve(kConfigJsonReserve);
    Obj o(out);
    o.str("experiment", job.experiment);
    configToJson(o.key("cfg"), job.cfg);
    o.close();
    return out;
}

SimJob
jobFromJson(std::string_view json)
{
    const JDoc doc = Parser(json).parse();
    const JVal &v = doc.root();
    SimJob j;
    j.experiment = v.at("experiment").asStr();
    j.cfg = configFromJVal(v.at("cfg"));
    return j;
}

ParseOutcome
parseServeRequest(std::string_view json, ServeRequest &out)
{
    // Every fatal the strict parser / config decoder raises on this
    // thread while the scope is active becomes a FatalError caught
    // below -- one request frame can never take the daemon down.
    FatalCaptureScope scope;
    try {
        const JDoc doc = Parser(json).parse();
        const JVal &v = doc.root();
        out = ServeRequest{};
        if (const JVal *id = v.find("id"))
            out.id = id->asU64();
        if (const JVal *op = v.find("op")) {
            if (op->asStr() == "ping") {
                out.ping = true;
                return ParseOutcome{};
            }
            if (op->asStr() == "health") {
                out.health = true;
                return ParseOutcome{};
            }
            if (op->asStr() == "metrics") {
                out.metrics = true;
                return ParseOutcome{};
            }
            return ParseOutcome{false, "unknown op '" +
                                           std::string(op->asStr()) +
                                           "'"};
        }
        if (const JVal *dl = v.find("deadlineMs"))
            out.deadlineMs = dl->asU64();
        out.job.experiment = v.at("experiment").asStr();
        out.job.cfg = configFromJVal(v.at("cfg"));
        return ParseOutcome{};
    } catch (const FatalError &e) {
        return ParseOutcome{false, e.what()};
    }
}

namespace
{

/** Shared body of the non-fatal DOM-parse wrappers. */
template <typename Fn>
ParseOutcome
captureFatal(Fn &&fn)
{
    FatalCaptureScope scope;
    try {
        fn();
        return ParseOutcome{};
    } catch (const FatalError &e) {
        return ParseOutcome{false, e.what()};
    }
}

} // namespace

ParseOutcome
parseJob(std::string_view json, SimJob &out)
{
    return captureFatal([&] { out = jobFromJson(json); });
}

ParseOutcome
parseConfig(std::string_view json, SimConfig &out)
{
    return captureFatal([&] { out = configFromJson(json); });
}

ParseOutcome
parseResults(std::string_view json, SimResults &out)
{
    return captureFatal([&] { out = resultsFromJson(json); });
}

std::string
toJson(const SimResults &r)
{
    std::string out;
    out.reserve(kResultsJsonReserve);
    resultsToJson(out, r);
    return out;
}

SimResults
resultsFromJson(std::string_view json)
{
    return resultsFromJVal(Parser(json).parse().root());
}

std::string
resultRecordToJson(std::uint64_t index, const SimResults &r)
{
    std::string out;
    out.reserve(kResultsJsonReserve);
    Obj o(out);
    o.u64("index", index);
    resultsToJson(o.key("results"), r);
    o.close();
    return out;
}

std::pair<std::uint64_t, SimResults>
resultRecordFromJson(std::string_view json)
{
    const JDoc doc = Parser(json).parse();
    const JVal &v = doc.root();
    return {v.at("index").asU64(), resultsFromJVal(v.at("results"))};
}

std::uint64_t
resultRecordIndex(std::string_view json)
{
    // Fast path for this serializer's own output ('index' is always
    // the first key): a streaming merge over millions of records must
    // not DOM-parse every full SimResults just to read its index.
    constexpr std::string_view kPrefix = "{\"index\":";
    if (json.substr(0, kPrefix.size()) == kPrefix) {
        std::uint64_t v = 0;
        std::size_t p = kPrefix.size();
        bool any = false;
        while (p < json.size() && json[p] >= '0' && json[p] <= '9') {
            v = v * 10 + static_cast<std::uint64_t>(json[p] - '0');
            ++p;
            any = true;
        }
        if (any && p < json.size() &&
            (json[p] == ',' || json[p] == '}')) {
            return v;
        }
    }
    return Parser(json).parse().root().at("index").asU64();
}

} // namespace serde
} // namespace stsim
