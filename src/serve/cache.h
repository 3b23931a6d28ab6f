/**
 * @file
 * Content-addressed result cache of the serve daemon. A simulation result is
 * a pure function of (workload, config, timing mode, simulator build):
 * the simulator is deterministic and the stats JSON renderer is byte-stable,
 * so the cache key is exactly that tuple —
 *
 *   trace_hash   canonical FNV-1a of the trace's workload content
 *                (insertion-order independent; see TraceFile::contentHash)
 *   config_hash  FNV-1a over the effective TraceOptions' serialization
 *   timing_mode  detailed / sampled (resolved, never Auto)
 *   build_stamp  compiler + build date + format versions
 *
 * sim_threads is deliberately absent: results are bitwise identical at any
 * worker count, so one cached entry serves every thread budget.
 *
 * Eviction is LRU under a byte budget (JSON size + fixed per-entry
 * overhead). Optionally each entry is mirrored to a persist directory as a
 * small serialize.h-framed file named by the key, so a daemon restart with
 * the same build stamp starts warm. Entries carry their full key, so a
 * result persisted by a different build can never be served to this one —
 * its build stamp simply never matches a lookup.
 */
#ifndef MLGS_SERVE_CACHE_H
#define MLGS_SERVE_CACHE_H

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace mlgs::serve
{

struct CacheKey
{
    uint64_t trace_hash = 0;
    uint64_t config_hash = 0;
    uint8_t timing_mode = 0;
    uint64_t build_stamp = 0;

    bool operator==(const CacheKey &o) const = default;

    /** Combined digest: filename of the persisted entry + hash-map key. */
    uint64_t digest() const;
    /** 16-hex-digit digest, the on-disk entry filename stem. */
    std::string hex() const;
};

struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;
};

/** Thread-safe LRU result cache; all public calls lock internally. */
class ResultCache
{
  public:
    /**
     * @param max_bytes  eviction budget; 0 disables caching entirely.
     * @param persist_dir  when non-empty, entries are mirrored to
     *   `persist_dir/<digest>.mlgsres` and previously persisted entries are
     *   loaded eagerly (corrupt or foreign-build files are ignored).
     */
    explicit ResultCache(uint64_t max_bytes,
                         std::string persist_dir = std::string());

    /** Stats JSON for the key, refreshing its LRU position. */
    std::optional<std::string> get(const CacheKey &key);

    /** Insert (or refresh) a result; evicts LRU tails over budget. */
    void put(const CacheKey &key, const std::string &stats_json);

    CacheStats stats() const;

  private:
    struct Entry
    {
        CacheKey key;
        std::string json;
    };

    void evictOverBudgetLocked();
    void persistLocked(const Entry &e) const;
    void loadPersisted();
    static uint64_t entryBytes(const std::string &json);

    const uint64_t max_bytes_;
    const std::string persist_dir_;

    mutable std::mutex mu_;
    std::list<Entry> lru_; ///< front = most recent
    std::unordered_map<uint64_t, std::list<Entry>::iterator> map_;
    CacheStats stats_;
};

} // namespace mlgs::serve

#endif // MLGS_SERVE_CACHE_H
