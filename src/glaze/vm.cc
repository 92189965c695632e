#include "glaze/vm.hh"

#include "sim/fault.hh"
#include "sim/log.hh"

namespace fugu::glaze
{

FramePool::Stats::Stats(StatGroup *parent, NodeId id)
    : group("frames" + std::to_string(id), parent),
      allocations(&group, "allocations", "frames handed out"),
      peakUsed(&group, "peak_used", "max frames in use at once"),
      allocationFailures(&group, "failures",
                         "allocation attempts with no free frame")
{
}

FramePool::FramePool(unsigned total, StatGroup *parent, NodeId id)
    : stats(parent, id), total_(total)
{
    fugu_assert(total_ > 0, "empty frame pool");
}

bool
FramePool::tryAllocate()
{
    if (fault_ && fault_->frameDenied()) {
        ++stats.allocationFailures;
        return false;
    }
    if (used_ >= total_) {
        ++stats.allocationFailures;
        return false;
    }
    ++used_;
    dirty_ = true;
    ++stats.allocations;
    if (used_ > stats.peakUsed.value())
        stats.peakUsed.set(used_);
    return true;
}

void
FramePool::release()
{
    fugu_assert(used_ > 0, "releasing a frame never allocated");
    --used_;
    dirty_ = true;
}

AddressSpace::~AddressSpace()
{
    for (auto &[page, st] : pages_) {
        if (st == PageState::Mapped)
            frames_.release();
    }
}

void
AddressSpace::reserve(std::uint64_t first, std::uint64_t npages)
{
    for (std::uint64_t p = first; p < first + npages; ++p) {
        fugu_assert(state(p) == PageState::Unmapped, "page ", p,
                    " reserved twice");
        pages_[p] = PageState::ZeroFill;
    }
}

PageState
AddressSpace::state(std::uint64_t page) const
{
    auto it = pages_.find(page);
    return it == pages_.end() ? PageState::Unmapped : it->second;
}

bool
AddressSpace::needsFault(std::uint64_t page) const
{
    PageState st = state(page);
    fugu_assert(st != PageState::Unmapped, "access to unmapped page ",
                page);
    return st == PageState::ZeroFill;
}

bool
AddressSpace::mapPage(std::uint64_t page)
{
    fugu_assert(state(page) == PageState::ZeroFill,
                "mapPage on page in wrong state");
    if (!frames_.tryAllocate())
        return false;
    pages_[page] = PageState::Mapped;
    ++mapped_;
    return true;
}

void
AddressSpace::unmapPage(std::uint64_t page)
{
    fugu_assert(state(page) == PageState::Mapped,
                "unmapPage on non-mapped page");
    pages_[page] = PageState::ZeroFill;
    frames_.release();
    fugu_assert(mapped_ > 0);
    --mapped_;
}

} // namespace fugu::glaze
