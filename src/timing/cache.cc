#include "timing/cache.h"

#include "common/log.h"

namespace mlgs::timing
{

TagCache::TagCache(const CacheConfig &cfg) : cfg_(cfg)
{
    MLGS_REQUIRE(cfg.line_bytes && (cfg.line_bytes & (cfg.line_bytes - 1)) == 0,
                 "cache line size must be a power of two");
    num_sets_ = cfg.size_bytes / (cfg.line_bytes * cfg.assoc);
    MLGS_REQUIRE(num_sets_ > 0, "cache too small for its associativity");
    lines_.resize(size_t(num_sets_) * cfg.assoc);
    mshrs_.assign(cfg.mshr_entries, kFreeMshr);
}

unsigned
TagCache::setIndex(addr_t line_addr) const
{
    return unsigned((line_addr / cfg_.line_bytes) % num_sets_);
}

TagCache::Line *
TagCache::probe(addr_t line_addr)
{
    const unsigned set = setIndex(line_addr);
    for (unsigned w = 0; w < cfg_.assoc; w++) {
        Line &l = lines_[size_t(set) * cfg_.assoc + w];
        if (l.valid && l.tag == line_addr)
            return &l;
    }
    return nullptr;
}

unsigned
TagCache::findMshr(addr_t line_addr) const
{
    for (unsigned m = 0; m < mshrs_.size(); m++)
        if (mshrs_[m] == line_addr)
            return m;
    return kNoMshr;
}

CacheOutcome
TagCache::accessRead(addr_t line_addr, cycle_t now, unsigned *mshr)
{
    if (Line *l = probe(line_addr)) {
        l->last_use = now;
        hits_++;
        return CacheOutcome::Hit;
    }
    misses_++;
    unsigned m = findMshr(line_addr);
    if (m != kNoMshr) {
        if (mshr)
            *mshr = m;
        return CacheOutcome::MissMerged;
    }
    if (mshr_in_use_ >= mshrs_.size()) {
        misses_--; // not a real access yet; caller retries
        return CacheOutcome::ReservationFail;
    }
    m = findMshr(kFreeMshr);
    mshrs_[m] = line_addr;
    mshr_in_use_++;
    if (mshr)
        *mshr = m;
    return CacheOutcome::Miss;
}

bool
TagCache::accessWrite(addr_t line_addr, cycle_t now)
{
    if (Line *l = probe(line_addr)) {
        l->last_use = now;
        hits_++;
        return true;
    }
    misses_++;
    return false;
}

unsigned
TagCache::fill(addr_t line_addr, cycle_t now)
{
    const unsigned m = findMshr(line_addr);
    if (m != kNoMshr) {
        mshrs_[m] = kFreeMshr;
        mshr_in_use_--;
    }
    if (probe(line_addr))
        return m;
    const unsigned set = setIndex(line_addr);
    Line *victim = nullptr;
    for (unsigned w = 0; w < cfg_.assoc; w++) {
        Line &l = lines_[size_t(set) * cfg_.assoc + w];
        if (!l.valid) {
            victim = &l;
            break;
        }
        if (!victim || l.last_use < victim->last_use)
            victim = &l;
    }
    victim->valid = true;
    victim->tag = line_addr;
    victim->last_use = now;
    return m;
}

} // namespace mlgs::timing
