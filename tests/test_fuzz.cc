/** @file Differential fuzzing of the full compiler pipeline.
 *
 *  Random SPM-compute loops are generated, compiled for every target,
 *  and executed; compileKernel's built-in validation compares each
 *  accelerated variant's memory outputs against the software run bit
 *  for bit. Any mapper/rewriter/patch-semantics bug that changes
 *  behaviour aborts the test.
 */

#include <gtest/gtest.h>

#include "compiler/driver.hh"
#include "fuzz_gen.hh"
#include "mem/addrmap.hh"

namespace stitch::compiler
{
namespace
{

using namespace isa::reg;
using isa::Assembler;

/** Build a random but well-formed SPM-processing loop. */
KernelInput
randomKernel(std::uint64_t seed)
{
    Rng rng(seed);
    Assembler a("fuzz");

    constexpr auto spm = static_cast<std::int32_t>(mem::spmBase);
    a.li(s2, spm);        // input array [64]
    a.li(s3, spm + 256);  // output array [64]

    auto loop = a.newLabel();
    a.li(t0, 0);  // index
    a.li(a0, 1);  // rolling accumulator
    a.bind(loop);
    a.slli(t1, t0, 2);
    a.add(t2, s2, t1);
    a.lw(t3, t2, 0);

    // Random compute body over t3..t7/a0.
    const RegId temps[] = {t3, t4, t5, t6, t7, a0};
    fuzz::emitRandomAlu(a, rng, temps,
                        static_cast<int>(rng.range(3, 10)));

    a.add(t2, s3, t1);
    a.sw(a0, t2, 0);
    a.addi(t0, t0, 1);
    a.slti(t8, t0, 64);
    a.bne(t8, zero, loop);
    a.halt();

    auto prog = a.finish();
    std::vector<Word> data;
    for (int i = 0; i < 64; ++i)
        data.push_back(static_cast<Word>(rng.next()) & 0xffff);
    prog.addDataWords(mem::spmBase, data);

    KernelInput input;
    input.program = std::move(prog);
    input.spmBaseRegs = {s2, s3};
    input.outputs = {{mem::spmBase + 256, 256}};
    return input;
}

class CompilerFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(CompilerFuzz, AllVariantsMatchSoftware)
{
    auto input = randomKernel(
        static_cast<std::uint64_t>(GetParam()) * 7919 + 17);
    // compileKernel fatals if any variant's outputs diverge.
    auto compiled = compileKernel("fuzz", input);
    EXPECT_EQ(compiled.variants.size(), 13u);
    for (const auto &v : compiled.variants)
        EXPECT_LE(v.cycles, compiled.softwareCycles);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompilerFuzz,
                         ::testing::Range(0, 24));

} // namespace
} // namespace stitch::compiler
