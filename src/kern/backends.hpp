// Internal wiring between the dispatcher and the per-ISA translation
// units. Each backend TU exposes its table through one getter; TUs for
// ISAs the build cannot target still compile (their getter returns
// nullptr) so the CMake logic stays trivial.
#pragma once

#include "src/kern/kern.hpp"

namespace mmtag::kern::detail {

// Full reference table; never nullptr.
[[nodiscard]] const Kernels* scalar_table();
// nullptr when the compiler could not target the ISA.
[[nodiscard]] const Kernels* avx2_table();

// The AVX2 backend's CRC: slicing-by-8 CRC-16/CCITT over whole bytes
// plus a bitwise tail. Bit-exact with the scalar table's crc16_bits.
std::uint16_t crc16_bits_sliced(const std::uint8_t* bytes, std::size_t nbits);

}  // namespace mmtag::kern::detail
