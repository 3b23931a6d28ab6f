/**
 * @file
 * The .mlgstrace container: a versioned, self-contained serialization of a
 * device-visible workload — everything that crossed the simulated CUDA API
 * boundary — sufficient to re-drive either execution backend with no
 * frontend (cudnn/blas/torchlet) code in the loop.
 *
 * Layout (version 3, all little-endian-naive like checkpoints):
 *
 *   header   : u64 magic "MLGSTRCE", u32 version
 *   hash     : u64 canonical FNV-1a content hash of the workload (modules +
 *              op list with blob/string references replaced by their
 *              *contents*, so the hash is independent of table insertion
 *              order; options are excluded — they hash separately as the
 *              cache key's config half). Verified on load.
 *   options  : SimMode + functional/timing knobs + full GpuConfig, so a
 *              replayed Context reproduces the recorded run bitwise; since
 *              version 3 also the recording device's id and the device count
 *              of the recorded context, so multi-GPU runs serialize as one
 *              standalone trace per device (see TraceRecorder)
 *   strings  : interned string table (kernel / module / texture / symbol
 *              names); ops reference strings by dense id
 *   blobs    : content-deduplicated byte payloads (H2D uploads, expected D2H
 *              results, kernel parameter blocks, PTX sources). Identical
 *              payloads — re-uploaded weights, repeated parameter blocks —
 *              are stored once and referenced by id (content-hash interning)
 *   modules  : module table. Modules referenced by a launch carry their PTX
 *              source (a blob id); unused modules elide the source and store
 *              only their allocator effects (the (bytes, align) requests
 *              their module-scope globals made), so replay preserves every
 *              device address without parsing PTX nobody runs
 *   ops      : the API-call stream, in exact call order
 *   footer   : u64 end marker (cheap truncation detection)
 *
 * Versioning policy: readers accept exactly the versions they know how to
 * decode; any format change — field added, opcode added, section reordered —
 * bumps kTraceVersion. There is no in-place migration: traces are cheap to
 * re-record, so old files fail with a clear "unsupported version" error
 * instead of being silently misread. The checkpoint subsystem (src/chkpt)
 * shares this file's StringIntern for kernel/module identity.
 */
#ifndef MLGS_TRACE_TRACE_FORMAT_H
#define MLGS_TRACE_TRACE_FORMAT_H

#include <string>
#include <unordered_map>
#include <vector>

#include "common/serialize.h"
#include "common/types.h"
#include "func/bug_model.h"
#include "timing/config.h"

namespace mlgs::cuda
{
enum class SimMode;
} // namespace mlgs::cuda

namespace mlgs::trace
{

constexpr uint64_t kTraceMagic = 0x4543525453474c4dull; // "MLGSTRCE"
constexpr uint32_t kTraceVersion = 3;

/** Sentinel blob id: no payload attached. */
constexpr uint32_t kNoBlob = 0xffffffffu;

/**
 * Dense string-interning table. Used by traces for every name an op
 * references and reused by src/chkpt for checkpoint kernel/module identity,
 * so both formats serialize names the same way.
 */
class StringIntern
{
  public:
    /** Intern a string, returning its dense id (stable for this table). */
    uint32_t
    id(const std::string &s)
    {
        const auto it = ids_.find(s);
        if (it != ids_.end())
            return it->second;
        const auto nid = uint32_t(strings_.size());
        strings_.push_back(s);
        ids_.emplace(s, nid);
        return nid;
    }

    /** Bounds-checked lookup. */
    const std::string &
    str(uint32_t sid) const
    {
        MLGS_REQUIRE(sid < strings_.size(), "corrupt stream: string id ", sid,
                     " out of range (table has ", strings_.size(), ")");
        return strings_[sid];
    }

    uint32_t size() const { return uint32_t(strings_.size()); }

    void
    save(BinaryWriter &w) const
    {
        w.put<uint32_t>(size());
        for (const auto &s : strings_)
            w.putString(s);
    }

    void
    load(BinaryReader &r)
    {
        strings_.clear();
        ids_.clear();
        const auto n = r.get<uint32_t>();
        for (uint32_t i = 0; i < n; i++)
            id(r.getString());
    }

  private:
    std::vector<std::string> strings_;
    std::unordered_map<std::string, uint32_t> ids_;
};

/** Content-deduplicated payload store (hash + full compare, no collisions). */
class BlobStore
{
  public:
    /** Intern a payload; identical contents return the same id. */
    uint32_t put(const void *data, size_t n);

    uint32_t
    put(const std::vector<uint8_t> &v)
    {
        return put(v.data(), v.size());
    }

    const std::vector<uint8_t> &
    blob(uint32_t bid) const
    {
        MLGS_REQUIRE(bid < blobs_.size(), "corrupt stream: blob id ", bid,
                     " out of range (store has ", blobs_.size(), ")");
        return blobs_[bid];
    }

    uint32_t size() const { return uint32_t(blobs_.size()); }
    uint64_t storedBytes() const { return stored_bytes_; }
    /** Bytes presented to put(), before deduplication. */
    uint64_t offeredBytes() const { return offered_bytes_; }

    void save(BinaryWriter &w) const;
    void load(BinaryReader &r);

  private:
    std::vector<std::vector<uint8_t>> blobs_;
    std::unordered_multimap<uint64_t, uint32_t> by_hash_;
    uint64_t stored_bytes_ = 0;
    uint64_t offered_bytes_ = 0;
};

/** One module in the trace's module table. */
struct TraceModule
{
    uint32_t name_sid = 0;
    /** PTX source blob; kNoBlob when no launch references the module. */
    uint32_t source_blob = kNoBlob;
    /** (bytes, align) allocator requests made for module-scope globals. */
    std::vector<std::pair<uint64_t, uint64_t>> global_allocs;
};

/** Opcodes of the trace op stream. Append-only; renumbering bumps version. */
enum class OpCode : uint8_t
{
    LoadModule = 1,
    Malloc,
    Free,
    MemcpyH2D,
    MemcpyD2H,
    MemcpyD2D,
    Memset,
    MemcpyToSymbol,
    Launch,
    CreateStream,
    DestroyStream,
    CreateEvent,
    RecordEvent,
    WaitEvent,
    StreamSync,
    DeviceSync,
    RegisterTexture,
    MallocArray,
    FreeArray,
    MemcpyToArray,
    BindTextureToArray,
    BindTextureLinear,
    UnbindTexture,
    PeerSend, ///< since v3: one device's half of a cudaMemcpyPeer (source)
    PeerRecv, ///< since v3: the destination half, payload carried as a blob
    kMaxOp = PeerRecv,
};

const char *opCodeName(OpCode c);

/**
 * One recorded API call. A deliberately uniform record: every op serializes
 * the same field set, trading a few bytes per op for a trivially robust
 * decoder. Field use by opcode:
 *
 *   LoadModule        id=module index
 *   Malloc            a=bytes b=align c=resulting addr
 *   Free              a=addr
 *   MemcpyH2D         a=dst blob=payload stream
 *   MemcpyD2H         a=src b=bytes blob=expected payload stream
 *   MemcpyD2D         a=dst b=src c=bytes stream
 *   Memset            a=dst b=bytes u8=fill stream
 *   MemcpyToSymbol    sid=symbol a=addr blob=payload
 *   Launch            id=module sid=kernel grid block blob=params stream
 *   CreateStream      id=expected stream id
 *   DestroyStream     id
 *   CreateEvent       id=expected event id
 *   RecordEvent       id=event stream
 *   WaitEvent         id=event stream
 *   StreamSync        stream
 *   DeviceSync        —
 *   RegisterTexture   sid=name id=expected texref
 *   MallocArray       id=array index a=addr b=width c=height d=channels
 *   FreeArray         id=array index
 *   MemcpyToArray     id=array index blob=payload (count = bytes / 4)
 *   BindTextureToArray id=texref b=array index u8=address mode
 *   BindTextureLinear id=texref a=ptr b=width c=channels u8=address mode
 *   UnbindTexture     id=texref
 *   PeerSend          a=src b=bytes c=completion cycle id=peer device stream
 *   PeerRecv          a=dst b=bytes c=completion cycle id=peer device
 *                     blob=transferred payload stream
 *
 * Peer ops record one device's half of a cudaMemcpyPeer with its *resolved*
 * completion cycle on that device's timeline (and, for receives, the bytes
 * that crossed the link), so a single device's trace replays standalone —
 * timing and memory effects intact — with no live peer in the process.
 */
struct TraceOp
{
    OpCode code = OpCode::DeviceSync;
    uint64_t a = 0, b = 0, c = 0, d = 0;
    uint32_t id = 0;
    uint32_t sid = 0;
    uint32_t blob = kNoBlob;
    uint32_t stream = 0;
    Dim3 grid, block;
    uint8_t u8 = 0;
};

/** Serializable mirror of the ContextOptions fields that shape execution. */
struct TraceOptions
{
    uint8_t mode = 0; ///< cuda::SimMode
    uint8_t legacy_texture_name_map = 0;
    double memcpy_bytes_per_cycle = 8.0;
    /** Which device of the recorded context this trace captured (v3). */
    uint32_t device_id = 0;
    /** Device count of the recorded context; peer ops must reference a
     *  device in [0, device_count) other than device_id. */
    uint32_t device_count = 1;
    func::BugModel bugs;
    timing::GpuConfig gpu;

    void save(BinaryWriter &w) const;
    void load(BinaryReader &r);
};

/** A complete in-memory trace (what .mlgstrace files serialize). */
struct TraceFile
{
    TraceOptions options;
    StringIntern strings;
    BlobStore blobs;
    std::vector<TraceModule> modules;
    std::vector<TraceOp> ops;

    void save(const std::string &path) const;
    static TraceFile load(const std::string &path);

    /**
     * Deserialize from bytes (`name` labels errors). The stored content
     * hash is recomputed and verified — a trace whose workload bytes were
     * altered (or whose stored hash was) fails with a clear FatalError.
     */
    static TraceFile read(BinaryReader &r);
    void write(BinaryWriter &w) const;

    /**
     * Canonical FNV-1a hash of the workload content: the module table and
     * the op list, with every blob reference replaced by the blob's content
     * hash and every string reference by the string's bytes. Two traces of
     * the same workload hash identically even if their intern tables were
     * populated in different orders; options (GpuConfig et al.) are
     * deliberately excluded so the hash can serve as the workload half of a
     * (workload, config) cache key.
     */
    uint64_t contentHash() const;
};

} // namespace mlgs::trace

#endif // MLGS_TRACE_TRACE_FORMAT_H
