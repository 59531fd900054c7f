/** @file Random instruction generators shared by the fuzz tests:
 *  compiler differential fuzzing (test_fuzz.cc) and scheduler
 *  differential fuzzing (test_sched.cc). */

#ifndef STITCH_TESTS_FUZZ_GEN_HH
#define STITCH_TESTS_FUZZ_GEN_HH

#include <cstdint>
#include <span>

#include "common/rng.hh"
#include "isa/assembler.hh"

namespace stitch::fuzz
{

/** Append `ops` random ALU, MUL and shift operations over `temps`. */
inline void
emitRandomAlu(isa::Assembler &a, Rng &rng, std::span<const RegId> temps,
              int ops)
{
    const auto last = static_cast<std::int64_t>(temps.size()) - 1;
    auto pick = [&] {
        return temps[static_cast<std::size_t>(rng.range(0, last))];
    };
    for (int i = 0; i < ops; ++i) {
        RegId rd = pick();
        RegId ra = pick();
        RegId rb = pick();
        switch (rng.range(0, 7)) {
          case 0: a.add(rd, ra, rb); break;
          case 1: a.sub(rd, ra, rb); break;
          case 2: a.mul(rd, ra, rb); break;
          case 3: a.xor_(rd, ra, rb); break;
          case 4: a.and_(rd, ra, rb); break;
          case 5: a.or_(rd, ra, rb); break;
          case 6:
            a.slli(rd, ra,
                   static_cast<std::int32_t>(rng.range(1, 7)));
            break;
          case 7:
            a.srai(rd, ra,
                   static_cast<std::int32_t>(rng.range(1, 7)));
            break;
        }
    }
}

} // namespace stitch::fuzz

#endif // STITCH_TESTS_FUZZ_GEN_HH
