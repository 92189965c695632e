/**
 * @file
 * FlatMap: the open-addressing hash table behind every per-message
 * lookup (network channels, the invariant checker's in-flight
 * messages and streams).
 *
 * Keys are 64-bit integers. The home slot is Fibonacci hashing over
 * the full 64-bit product, keeping its top log2(capacity) bits, so
 * every slot is reachable and adjacent keys spread out. Collisions
 * probe linearly; the table doubles at 70% load and never shrinks, so
 * once it reaches its high-water mark it never allocates again.
 * erase() backward-shifts the rest of the probe chain into the hole,
 * leaving no tombstones: a table whose entries come and go keeps
 * probe chains as short as one that only grows.
 *
 * The all-ones key is reserved as the empty-slot marker. The table is
 * never iterated by simulation code, so slot order cannot leak into
 * simulation order. getOrCreate() (growth) and erase() (backward
 * shift) both move entries: they invalidate every pointer and
 * reference into the table.
 */

#ifndef FUGU_SIM_FLAT_MAP_HH
#define FUGU_SIM_FLAT_MAP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/log.hh"

namespace fugu::sim
{

/** Occupancy and probe lengths of one or more FlatMaps. */
struct TableHealth
{
    std::size_t entries = 0;
    std::size_t capacity = 0;
    std::size_t maxProbe = 0;
    std::size_t totalProbe = 0; ///< summed over every entry

    double
    meanProbe() const
    {
        return entries ? static_cast<double>(totalProbe) / entries : 0.0;
    }
};

template <typename V>
class FlatMap
{
  public:
    using Key = std::uint64_t;

    /** Reserved: marks an empty slot; never a valid key. */
    static constexpr Key kEmpty = ~Key{0};

    V *
    find(Key k)
    {
        if (size_ == 0)
            return nullptr;
        for (std::size_t i = home(k);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.key == k)
                return &s.value;
            if (s.key == kEmpty)
                return nullptr;
        }
    }

    const V *
    find(Key k) const
    {
        return const_cast<FlatMap *>(this)->find(k);
    }

    /** The entry for @p k, value-initialized if it was absent. */
    V &
    getOrCreate(Key k)
    {
        fugu_assert(k != kEmpty, "FlatMap key collides with kEmpty");
        if ((size_ + 1) * 10 >= slots_.size() * 7)
            grow();
        for (std::size_t i = home(k);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.key == k)
                return s.value;
            if (s.key == kEmpty) {
                s.key = k;
                s.value = V{};
                ++size_;
                return s.value;
            }
        }
    }

    /** Remove @p k; @return false if it was absent. */
    bool
    erase(Key k)
    {
        if (size_ == 0)
            return false;
        std::size_t hole = home(k);
        for (;; hole = (hole + 1) & mask_) {
            if (slots_[hole].key == k)
                break;
            if (slots_[hole].key == kEmpty)
                return false;
        }
        // Backward shift: walk the rest of the chain and pull back
        // every entry whose home lies cyclically at or before the
        // hole, so no lookup ever has to step over a gap.
        for (std::size_t j = (hole + 1) & mask_;; j = (j + 1) & mask_) {
            Slot &s = slots_[j];
            if (s.key == kEmpty)
                break;
            if (((j - home(s.key)) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = std::move(s);
                hole = j;
            }
        }
        slots_[hole].key = kEmpty;
        --size_;
        return true;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return slots_.size(); }

    /**
     * Home slot of @p k at the current capacity (tests, health).
     * Only meaningful once the table holds slots (capacity() > 0).
     */
    std::size_t
    home(Key k) const
    {
        return (k * 0x9e3779b97f4a7c15ull) >> shift_;
    }

    /** Fold this table's occupancy into @p h (diagnostics). */
    void
    addHealth(TableHealth &h) const
    {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i].key == kEmpty)
                continue;
            const std::size_t probe =
                ((i - home(slots_[i].key)) & mask_) + 1;
            h.maxProbe = std::max(h.maxProbe, probe);
            h.totalProbe += probe;
        }
        h.entries += size_;
        h.capacity += slots_.size();
    }

  private:
    struct Slot
    {
        Key key = kEmpty;
        V value{};
    };

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
        shift_ = old.empty() ? 60 : shift_ - 1;
        mask_ = slots_.size() - 1;
        for (Slot &s : old) {
            if (s.key == kEmpty)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].key != kEmpty)
                i = (i + 1) & mask_;
            slots_[i] = std::move(s);
        }
    }

    std::vector<Slot> slots_; // power-of-2 size
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;     // 64 - log2(slots_.size()); set by grow
};

} // namespace fugu::sim

#endif // FUGU_SIM_FLAT_MAP_HH
