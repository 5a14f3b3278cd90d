/**
 * @file
 * Serialization layer for the out-of-process experiment engine: round
 * trips SimConfig / SimJob / SimResults through a compact line-based
 * JSON format (JSONL). Every double is encoded as a C99 hex-float
 * string ("0x1.3156440cec345p-9"), so parse(serialize(x)) reproduces x
 * bit for bit -- the property the sharded runner's merge-vs-in-process
 * equivalence gate relies on.
 *
 * One serialized value per line, no embedded newlines: a manifest is
 * one SimJob per line, a result stream is one indexed SimResults
 * record per line, and shard outputs can be merged by sorting lines on
 * their "index" field without re-serializing.
 */

#ifndef STSIM_CORE_JOB_SERDE_HH
#define STSIM_CORE_JOB_SERDE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/parallel_harness.hh"
#include "core/sim_config.hh"
#include "core/sim_results.hh"

namespace stsim
{
namespace serde
{

/** Serialize a full SimConfig as one JSON object (one line). */
std::string toJson(const SimConfig &cfg);

/** Parse a SimConfig; fatals on malformed input. */
SimConfig configFromJson(std::string_view json);

/** Serialize a manifest entry: {"experiment": ..., "cfg": {...}}. */
std::string toJson(const SimJob &job);

/** Parse a manifest entry; fatals on malformed input. */
SimJob jobFromJson(std::string_view json);

/** Serialize a SimResults with bit-exact doubles. */
std::string toJson(const SimResults &r);

/** Parse a SimResults; fatals on malformed input. */
SimResults resultsFromJson(std::string_view json);

/**
 * Serialize one result-stream record: the submission index plus the
 * full SimResults. The index is what makes shard outputs mergeable
 * back into submission order.
 */
std::string resultRecordToJson(std::uint64_t index, const SimResults &r);

/** Parse a result-stream record into (index, results). */
std::pair<std::uint64_t, SimResults>
resultRecordFromJson(std::string_view json);

/** The submission index of a result-stream record (cheap field pick). */
std::uint64_t resultRecordIndex(std::string_view json);

/**
 * One parsed stsim_serve request frame. The job shape is a strict
 * superset of a manifest record -- any manifest line is a valid
 * request -- plus an optional client-chosen "id" echoed in the reply
 * (default 0), an optional per-request "deadlineMs", and three
 * jobless operator forms: {"op":"ping"} (liveness), {"op":"health"}
 * (stats + worker-fleet state), and {"op":"metrics"} (the process
 * metrics-registry snapshot).
 */
struct ServeRequest
{
    bool ping = false;
    bool health = false;
    bool metrics = false;
    std::uint64_t id = 0;
    std::uint64_t deadlineMs = 0; ///< 0 = no per-request deadline
    SimJob job; ///< valid only when !ping && !health && !metrics
};

/**
 * Result of a non-fatal parse entry point. Truthiness is success;
 * on failure `error` carries the strict parser's diagnostic. One
 * result shape for every parse surface (serve requests, flat records,
 * manifest jobs, configs, results) -- callers that used to pick
 * between a bool + out-param style and a fatal DOM style now all
 * write `if (ParseOutcome p = parseX(...)) ... else use(p.error)`.
 */
struct ParseOutcome
{
    bool ok = true;
    std::string error;

    explicit operator bool() const { return ok; }
};

/**
 * Parse a request frame without fataling on hostile input: any
 * malformed frame (bad JSON, missing keys, wrong types -- anything
 * the strict parser or config decoder rejects) yields a failed
 * outcome carrying the diagnostic. The daemon's front door: garbage
 * must become an error reply, never a process exit.
 */
ParseOutcome parseServeRequest(std::string_view json,
                               ServeRequest &out);

/**
 * Writer for flat single-line JSON records (string / unsigned-integer
 * fields, no nesting) -- the dispatch journal's record shape. Shares
 * the main serializer's byte conventions (insertion-ordered fields,
 * identical string escaping), so journal lines are parseable by the
 * same strict reader as every other on-disk format here.
 */
class FlatWriter
{
  public:
    FlatWriter() : out_("{") {}

    FlatWriter &str(const char *key, std::string_view value);
    FlatWriter &u64(const char *key, std::uint64_t value);

    /** Close the object and take the line. The writer is spent. */
    std::string finish();

  private:
    void key(const char *k);

    std::string out_;
    bool first_ = true;
};

/** One parsed field of a flat record. */
struct FlatField
{
    std::string key;
    std::string value;     ///< decoded string, or raw integer token
    bool isString = false;
};

/**
 * Parse a flat single-line JSON record (the FlatWriter shape) without
 * fataling. Journal replay uses the failed outcome to drop a torn
 * trailing line after a dispatcher crash instead of refusing to
 * resume.
 */
ParseOutcome parseFlat(std::string_view json,
                       std::vector<FlatField> &out);

/** Non-fatal form of jobFromJson. */
ParseOutcome parseJob(std::string_view json, SimJob &out);

/** Non-fatal form of configFromJson. */
ParseOutcome parseConfig(std::string_view json, SimConfig &out);

/** Non-fatal form of resultsFromJson. */
ParseOutcome parseResults(std::string_view json, SimResults &out);

/** Bit-exact hex-float encoding of a double ("%a"). */
std::string doubleToHex(double d);

/** Append doubleToHex(d) to @p out without a temporary string. */
void appendDoubleHex(std::string &out, double d);

/** Inverse of doubleToHex; also accepts plain decimal doubles. */
double doubleFromHex(std::string_view s);

} // namespace serde
} // namespace stsim

#endif // STSIM_CORE_JOB_SERDE_HH
