#include "sim/Tlb.h"

#include "sim/FrameAllocator.h"
#include "support/Error.h"

#include <bit>

using namespace atmem;
using namespace atmem::sim;

TlbArray::TlbArray(uint32_t TotalEntries, uint32_t Ways, uint64_t PageBytes)
    : Ways(Ways), PageBytes(PageBytes) {
  if (Ways == 0)
    reportFatalError("TLB must have at least one way");
  if (TotalEntries == 0 || TotalEntries % Ways != 0)
    reportFatalError(
        "TLB entry count must be a nonzero multiple of associativity");
  if (PageBytes == 0)
    reportFatalError("TLB page size must be nonzero");
  Sets = TotalEntries / Ways;
  Vpns.assign(TotalEntries, InvalidVpn);
  Stamps.assign(TotalEntries, 0);
  // All shipped TLB geometries have power-of-two set counts; keep the
  // modulo path only for odd test configurations.
  SetMask = (Sets & (Sets - 1)) == 0 ? Sets - 1 : 0;
  PageShift = (PageBytes & (PageBytes - 1)) == 0
                  ? static_cast<uint32_t>(63 - std::countl_zero(PageBytes))
                  : 0;
}

void TlbArray::flushPage(uint64_t Va) {
  uint64_t Vpn = PageShift ? Va >> PageShift : Va / PageBytes;
  uint64_t *VpnRow = Vpns.data() + static_cast<size_t>(setOf(Vpn)) * Ways;
  for (uint32_t I = 0; I < Ways; ++I)
    if (VpnRow[I] == Vpn)
      VpnRow[I] = InvalidVpn;
}

void TlbArray::flushAll() {
  for (uint64_t &V : Vpns)
    V = InvalidVpn;
}

Tlb::Tlb(const TlbConfig &Config)
    : Small(Config.SmallEntries, Config.SmallWays, SmallPageBytes),
      Huge(Config.HugeEntries, Config.HugeWays, HugePageBytes) {}

void Tlb::flushPage(uint64_t Va, uint64_t PageBytes) {
  if (PageBytes == SmallPageBytes) {
    Small.flushPage(Va);
    return;
  }
  if (PageBytes == HugePageBytes) {
    Huge.flushPage(Va);
    return;
  }
  ATMEM_UNREACHABLE("unsupported page size");
}

void Tlb::flushAll() {
  Small.flushAll();
  Huge.flushAll();
}
