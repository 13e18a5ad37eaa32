/**
 * @file
 * How a warp's per-thread global atomic spreads over the L2 atomic
 * units.
 *
 * PerThread lanes address base + (first_tid + lane) * stride * esize,
 * so lane i of a warp hits addr0 + i * step with addr0 = lane 0's
 * address and step = stride * esize bytes. The unit serving a lane is
 * its 32-byte sector modulo the unit count. Since the sequence is
 * affine with step >= 0, sectors never decrease with the lane: lanes
 * on one sector form one contiguous run, and each run's unit is the
 * previous run's unit plus the sector delta, wrapped -- no per-lane
 * search and no per-sector division.
 *
 * When lane 0 sits on a sector boundary, lane i's sector offset from
 * lane 0 is (i * step) >> 5 whatever addr0 is, so the lane count per
 * unit, relative to lane 0's unit, is a table built once per decoded
 * op (appendUnitTable) and rebased onto each warp with one modulo
 * (forEachTableShare).
 */

#ifndef SYNCPERF_GPUSIM_ATOMIC_UNITS_HH
#define SYNCPERF_GPUSIM_ATOMIC_UNITS_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace syncperf::gpusim
{

/** The L2 atomic path's sector is 1 << sector_shift bytes. */
inline constexpr unsigned sector_shift = 5;

/** Lanes of one warp served by one L2 atomic unit. */
struct UnitShare
{
    std::uint32_t unit = 0;
    std::uint32_t lanes = 0;
};

/**
 * Call f(unit, lanes) once per run of consecutive lanes on one sector,
 * for @p lanes lanes at addr0 + lane * step. A unit recurs in a later
 * run when two sectors differ by a multiple of @p units.
 */
template <class F>
void
forEachSectorRun(std::uint64_t addr0, std::uint64_t step, int lanes,
                 std::uint32_t units, F &&f)
{
    std::uint64_t sector = addr0 >> sector_shift;
    auto unit = static_cast<std::uint32_t>(sector % units);
    std::uint32_t run = 0;
    std::uint64_t addr = addr0;
    for (int lane = 0; lane < lanes; ++lane, addr += step) {
        const std::uint64_t s = addr >> sector_shift;
        if (s != sector) {
            f(unit, run);
            std::uint64_t delta = s - sector;
            if (delta >= units)
                delta %= units;
            unit += static_cast<std::uint32_t>(delta);
            if (unit >= units)
                unit -= units;
            sector = s;
            run = 0;
        }
        ++run;
    }
    if (run > 0)
        f(unit, run);
}

/**
 * Append the unit table of @p lanes lanes at lane * step: one share
 * per distinct unit in first-touch order, with units relative to
 * lane 0's. It holds for any warp whose lane 0 sits on a sector
 * boundary. Returns the number of shares appended.
 */
inline std::uint32_t
appendUnitTable(std::uint64_t step, int lanes, std::uint32_t units,
                std::vector<UnitShare> &out)
{
    const std::size_t first = out.size();
    forEachSectorRun(0, step, lanes, units,
                     [&](std::uint32_t unit, std::uint32_t n) {
        const auto it =
            std::find_if(out.begin() + static_cast<std::ptrdiff_t>(first),
                         out.end(), [unit](const UnitShare &s) {
                             return s.unit == unit;
                         });
        if (it == out.end())
            out.push_back({unit, n});
        else
            it->lanes += n;
    });
    return static_cast<std::uint32_t>(out.size() - first);
}

/**
 * Call f(unit, lanes) for every share of @p table, rebased onto the
 * unit of lane 0 at the sector-aligned address @p addr0.
 */
template <class F>
void
forEachTableShare(std::span<const UnitShare> table, std::uint64_t addr0,
                  std::uint32_t units, F &&f)
{
    const auto unit0 =
        static_cast<std::uint32_t>((addr0 >> sector_shift) % units);
    for (const UnitShare &s : table) {
        std::uint32_t unit = unit0 + s.unit;
        if (unit >= units)
            unit -= units;
        f(unit, s.lanes);
    }
}

} // namespace syncperf::gpusim

#endif // SYNCPERF_GPUSIM_ATOMIC_UNITS_HH
