#include "serve/protocol.h"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <unistd.h>

#include "common/fnv.h"
#include "common/log.h"

namespace mlgs::serve
{

const char *
statusName(Status s)
{
    switch (s) {
    case Status::Ok:
        return "ok";
    case Status::RetryAfter:
        return "retry-after";
    case Status::Error:
        return "error";
    case Status::ShuttingDown:
        return "shutting-down";
    }
    return "?";
}

void
SubmitRequest::encode(BinaryWriter &w) const
{
    beginMsg(w, MsgType::SubmitRequest);
    w.put<uint8_t>(priority);
    w.put<uint8_t>(timing_mode);
    w.put<uint32_t>(sim_threads);
    w.put<uint8_t>(has_options_override ? 1 : 0);
    if (has_options_override)
        options_override.save(w);
    w.putVector(trace_bytes);
}

SubmitRequest
SubmitRequest::decode(BinaryReader &r)
{
    SubmitRequest req;
    req.priority = r.get<uint8_t>();
    req.timing_mode = r.get<uint8_t>();
    req.sim_threads = r.get<uint32_t>();
    req.has_options_override = r.get<uint8_t>() != 0;
    if (req.has_options_override)
        req.options_override.load(r);
    req.trace_bytes = r.getVector<uint8_t>();
    return req;
}

void
SubmitResponse::encode(BinaryWriter &w) const
{
    beginMsg(w, MsgType::SubmitResponse);
    w.put<uint8_t>(uint8_t(status));
    w.put<uint32_t>(retry_after_ms);
    w.putString(error);
    w.put<uint8_t>(cache_hit);
    w.put<uint8_t>(deduped);
    w.put<uint64_t>(trace_hash);
    w.put<uint64_t>(config_hash);
    w.put<double>(sim_ms);
    w.putString(stats_json);
}

SubmitResponse
SubmitResponse::decode(BinaryReader &r)
{
    SubmitResponse resp;
    resp.status = Status(r.get<uint8_t>());
    resp.retry_after_ms = r.get<uint32_t>();
    resp.error = r.getString();
    resp.cache_hit = r.get<uint8_t>();
    resp.deduped = r.get<uint8_t>();
    resp.trace_hash = r.get<uint64_t>();
    resp.config_hash = r.get<uint64_t>();
    resp.sim_ms = r.get<double>();
    resp.stats_json = r.getString();
    return resp;
}

void
ServerInfo::encode(BinaryWriter &w) const
{
    beginMsg(w, MsgType::InfoResponse);
    w.put<uint32_t>(workers);
    w.put<uint32_t>(queue_limit);
    w.put<uint64_t>(jobs_completed);
    w.put<uint64_t>(jobs_failed);
    w.put<uint64_t>(jobs_running);
    w.put<uint64_t>(cache_hits);
    w.put<uint64_t>(cache_misses);
    w.put<uint64_t>(dedup_joins);
    w.put<uint64_t>(shed);
    w.put<uint64_t>(cache_entries);
    w.put<uint64_t>(cache_bytes);
    w.put<uint64_t>(build_stamp);
}

ServerInfo
ServerInfo::decode(BinaryReader &r)
{
    ServerInfo info;
    info.workers = r.get<uint32_t>();
    info.queue_limit = r.get<uint32_t>();
    info.jobs_completed = r.get<uint64_t>();
    info.jobs_failed = r.get<uint64_t>();
    info.jobs_running = r.get<uint64_t>();
    info.cache_hits = r.get<uint64_t>();
    info.cache_misses = r.get<uint64_t>();
    info.dedup_joins = r.get<uint64_t>();
    info.shed = r.get<uint64_t>();
    info.cache_entries = r.get<uint64_t>();
    info.cache_bytes = r.get<uint64_t>();
    info.build_stamp = r.get<uint64_t>();
    return info;
}

uint64_t
buildStamp()
{
    Fnv1a h;
    h.addString(__VERSION__);
    h.addString(__DATE__);
    h.addString(__TIME__);
    h.add<uint32_t>(trace::kTraceVersion);
    h.add<uint32_t>(kServeVersion);
    return h.hash();
}

uint64_t
configHash(const trace::TraceOptions &opts)
{
    BinaryWriter w;
    opts.save(w);
    return fnv1a(w.bytes().data(), w.bytes().size());
}

namespace
{

void
writeAll(int fd, const void *data, size_t n)
{
    const auto *p = static_cast<const uint8_t *>(data);
    while (n > 0) {
        // MSG_NOSIGNAL: a peer that vanished mid-response must surface as a
        // catchable FatalError (EPIPE), not a process-killing SIGPIPE.
        const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            fatal("serve: socket write failed: ", std::strerror(errno));
        }
        p += size_t(w);
        n -= size_t(w);
    }
}

/** Returns bytes read; short only on EOF. */
size_t
readUpTo(int fd, void *out, size_t n)
{
    auto *p = static_cast<uint8_t *>(out);
    size_t got = 0;
    while (got < n) {
        const ssize_t r = ::read(fd, p + got, n - got);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            fatal("serve: socket read failed: ", std::strerror(errno));
        }
        if (r == 0)
            break;
        got += size_t(r);
    }
    return got;
}

} // namespace

void
writeFrame(int fd, const BinaryWriter &payload)
{
    const uint64_t len = payload.bytes().size();
    MLGS_REQUIRE(len <= kMaxFrameBytes, "serve: frame of ", len,
                 " bytes exceeds the ", kMaxFrameBytes, "-byte cap");
    writeAll(fd, &len, sizeof(len));
    writeAll(fd, payload.bytes().data(), len);
}

std::optional<std::vector<uint8_t>>
readFrame(int fd)
{
    uint64_t len = 0;
    const size_t got = readUpTo(fd, &len, sizeof(len));
    if (got == 0)
        return std::nullopt; // clean EOF between frames
    MLGS_REQUIRE(got == sizeof(len),
                 "serve: connection closed mid-frame (partial length prefix)");
    MLGS_REQUIRE(len <= kMaxFrameBytes, "serve: frame length prefix of ", len,
                 " bytes exceeds the ", kMaxFrameBytes,
                 "-byte cap (corrupt stream?)");
    std::vector<uint8_t> payload(len);
    if (len) {
        const size_t body = readUpTo(fd, payload.data(), len);
        MLGS_REQUIRE(body == len, "serve: connection closed mid-frame (got ",
                     body, " of ", len, " payload bytes)");
    }
    return payload;
}

MsgType
readMsgType(BinaryReader &r)
{
    r.readHeader(kServeMagic, kServeVersion, kServeVersion, "serve message");
    return MsgType(r.get<uint8_t>());
}

void
beginMsg(BinaryWriter &w, MsgType type)
{
    w.putHeader(kServeMagic, kServeVersion);
    w.put<uint8_t>(uint8_t(type));
}

} // namespace mlgs::serve
