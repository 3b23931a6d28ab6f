/**
 * @file
 * Wire protocol of mlgs-serve: length-prefixed binary frames over a local
 * (AF_UNIX) stream socket, with payloads serialized by common/serialize.h —
 * the same magic/version-headered, bounds-checked encoding traces and
 * checkpoints use, so a malformed or truncated frame fails with a clean
 * FatalError instead of feeding garbage to the daemon.
 *
 * Framing: every message is  u64 payload_length | payload .  The payload
 * starts with putHeader(kServeMagic, kServeVersion), then a u8 MsgType, then
 * the message body. Length is capped (kMaxFrameBytes) so a corrupt prefix
 * cannot provoke an unbounded allocation.
 *
 * The protocol is deliberately request/response over one connection: a
 * client writes one request frame and blocks for exactly one response frame.
 * Responses carry an explicit Status — including RetryAfter, the daemon's
 * graceful overload-shedding answer when admission control rejects a job.
 */
#ifndef MLGS_SERVE_PROTOCOL_H
#define MLGS_SERVE_PROTOCOL_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "trace/trace_format.h"

namespace mlgs::serve
{

constexpr uint64_t kServeMagic = 0x4556525353474c4dull; // "MLGSSRVE"
constexpr uint32_t kServeVersion = 2;

/** Upper bound on one frame's payload (a trace plus slack). */
constexpr uint64_t kMaxFrameBytes = uint64_t(1) << 30;

/** Message kinds. Append-only; renumbering bumps kServeVersion. */
enum class MsgType : uint8_t
{
    SubmitRequest = 1,
    SubmitResponse,
    PingRequest,
    PingResponse,
    InfoRequest,
    InfoResponse,
    ShutdownRequest,  ///< graceful drain, same path as SIGTERM
    ShutdownResponse, ///< acknowledged; the daemon drains and exits
    ErrorResponse,    ///< protocol-level failure (bad frame / bad message)
};

/** Outcome of a submission. */
enum class Status : uint8_t
{
    Ok = 0,
    /** Admission control shed the job; retry after retry_after_ms. */
    RetryAfter = 1,
    /** The job was rejected or failed; see `error`. */
    Error = 2,
    /** The daemon is draining; the job was not admitted. */
    ShuttingDown = 3,
};

const char *statusName(Status s);

/**
 * One simulation job: a complete .mlgstrace image plus the descriptor of how
 * to time it. sim_threads is a per-job worker budget (0 = server default)
 * and is deliberately NOT part of the cache key: results are bitwise
 * identical at any thread count, which is exactly what makes them cacheable.
 */
struct SubmitRequest
{
    uint8_t priority = 0;    ///< higher runs first among queued jobs
    uint8_t timing_mode = 0; ///< sample::TimingMode raw; Auto = trace default
    uint32_t sim_threads = 0;
    /**
     * Optional replacement for the trace's own TraceOptions (GpuConfig,
     * scheduler/DRAM policy, ...): one recorded workload can be swept across
     * configs server-side. When absent the trace's recorded options apply.
     */
    bool has_options_override = false;
    trace::TraceOptions options_override;
    std::vector<uint8_t> trace_bytes; ///< serialized .mlgstrace image

    void encode(BinaryWriter &w) const;
    static SubmitRequest decode(BinaryReader &r);
};

struct SubmitResponse
{
    Status status = Status::Ok;
    uint32_t retry_after_ms = 0; ///< meaningful when status == RetryAfter
    std::string error;           ///< meaningful when status == Error

    // ---- valid when status == Ok ----
    uint8_t cache_hit = 0; ///< answered from the result cache
    uint8_t deduped = 0;   ///< coalesced onto an in-flight identical job
    uint64_t trace_hash = 0;
    uint64_t config_hash = 0;
    double sim_ms = 0.0; ///< simulation wall time (0 for pure cache hits)
    std::string stats_json;

    void encode(BinaryWriter &w) const;
    static SubmitResponse decode(BinaryReader &r);
};

/** Daemon-side counters (InfoResponse body). */
struct ServerInfo
{
    uint32_t workers = 0;
    uint32_t queue_limit = 0;
    uint64_t jobs_completed = 0;
    uint64_t jobs_failed = 0;
    uint64_t jobs_running = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t dedup_joins = 0;
    uint64_t shed = 0;
    uint64_t cache_entries = 0;
    uint64_t cache_bytes = 0;
    uint64_t build_stamp = 0;

    void encode(BinaryWriter &w) const;
    static ServerInfo decode(BinaryReader &r);
};

/**
 * The build half of the cache key: results may only be served across jobs
 * that ran the same simulator build. Hashes the compiler identity and build
 * date, so a rebuilt daemon starts from a semantically fresh cache while an
 * unchanged binary can reuse its persisted one.
 */
uint64_t buildStamp();

/** FNV-1a over TraceOptions' canonical serialization (the config hash). */
uint64_t configHash(const trace::TraceOptions &opts);

// ---- framing over a socket fd ----

/** Write one frame (u64 length + payload); FatalError on I/O failure. */
void writeFrame(int fd, const BinaryWriter &payload);

/**
 * Read one frame. Returns nullopt on clean EOF (peer closed between
 * frames); FatalError on mid-frame EOF, I/O error, or an oversized length
 * prefix.
 */
std::optional<std::vector<uint8_t>> readFrame(int fd);

/**
 * Begin a message payload: validates the serve header and returns the
 * message type. Throws FatalError on bad magic/version.
 */
MsgType readMsgType(BinaryReader &r);

/** Start a message payload: serve header + type tag. */
void beginMsg(BinaryWriter &w, MsgType type);

} // namespace mlgs::serve

#endif // MLGS_SERVE_PROTOCOL_H
