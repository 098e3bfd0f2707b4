/**
 * @file
 * Exhaustive semantics matrix for the value-producing opcodes: each
 * case runs `r2 = <op> r0, r1; ret r2` through the interpreter and
 * checks a known answer, including the nasty corners (wrapping
 * arithmetic, INT64_MIN division, shift masking, FP conversion
 * clamps).
 */
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "interp/interpreter.h"
#include "interp/reference.h"
#include "interp/snapshot.h"
#include "ir/parser.h"

namespace encore::interp {
namespace {

/// Runs `main` with `args` through the tree-walking reference engine
/// and through the flat engine at both tiers, and requires the three
/// RunResults to agree bit for bit — status, counters, and memory.
/// This is the per-program enforcement of the fusion tier's contract
/// (outcomes are engine-independent by construction).
void
expectEnginesAgree(const std::string &text,
                   const std::vector<std::uint64_t> &args)
{
    auto module = ir::parseModule(text);
    ReferenceInterpreter ref(*module);
    const RunResult want = ref.run("main", args);

    for (const EngineKind engine :
         {EngineKind::Decoded, EngineKind::Fused}) {
        SCOPED_TRACE(engineKindName(engine));
        Interpreter interp(*module, engine);
        const RunResult got = interp.run("main", args);
        EXPECT_EQ(static_cast<int>(want.status),
                  static_cast<int>(got.status));
        EXPECT_EQ(want.error, got.error);
        EXPECT_EQ(want.return_value, got.return_value);
        EXPECT_EQ(want.dyn_instrs, got.dyn_instrs);
        EXPECT_EQ(want.value_instrs, got.value_instrs);
        EXPECT_EQ(want.overhead_instrs, got.overhead_instrs);
        EXPECT_EQ(want.globals, got.globals);
    }
}

struct OpCase
{
    const char *op;       // mnemonic (binary ops)
    std::uint64_t a;
    std::uint64_t b;
    std::uint64_t expected;
};

constexpr std::uint64_t kMinI64 =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::min());

class BinaryOp : public ::testing::TestWithParam<OpCase>
{
};

TEST_P(BinaryOp, ComputesExpectedValue)
{
    const OpCase &c = GetParam();
    const std::string text = std::string("module \"m\"\n"
                                         "func @main(2) {\n"
                                         "  bb entry:\n"
                                         "    r2 = ") +
                             c.op +
                             " r0, r1\n"
                             "    ret r2\n"
                             "}\n";
    auto module = ir::parseModule(text);
    Interpreter interp(*module);
    const RunResult result = interp.run("main", {c.a, c.b});
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.return_value, c.expected)
        << c.op << "(" << c.a << ", " << c.b << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Integer, BinaryOp,
    ::testing::Values(
        OpCase{"add", 3, 4, 7},
        OpCase{"add", ~0ULL, 1, 0}, // wraps
        OpCase{"sub", 3, 5, static_cast<std::uint64_t>(-2)},
        OpCase{"mul", 1ULL << 40, 1ULL << 30, 0}, // 2^70 mod 2^64
        OpCase{"div", static_cast<std::uint64_t>(-7), 2,
               static_cast<std::uint64_t>(-3)}, // trunc toward zero
        OpCase{"div", kMinI64, static_cast<std::uint64_t>(-1),
               kMinI64}, // defined wrap, no UB
        OpCase{"rem", static_cast<std::uint64_t>(-7), 3,
               static_cast<std::uint64_t>(-1)},
        OpCase{"rem", kMinI64, static_cast<std::uint64_t>(-1), 0},
        OpCase{"and", 0b1100, 0b1010, 0b1000},
        OpCase{"or", 0b1100, 0b1010, 0b1110},
        OpCase{"xor", 0b1100, 0b1010, 0b0110},
        OpCase{"shl", 1, 4, 16},
        OpCase{"shl", 1, 68, 16}, // shift amount masked to 6 bits
        OpCase{"shr", 0x8000000000000000ULL, 63, 1}, // logical
        OpCase{"cmpeq", 5, 5, 1}, OpCase{"cmpeq", 5, 6, 0},
        OpCase{"cmpne", 5, 6, 1},
        OpCase{"cmplt", static_cast<std::uint64_t>(-1), 0, 1}, // signed
        OpCase{"cmple", 7, 7, 1},
        OpCase{"cmpgt", 0, static_cast<std::uint64_t>(-1), 1},
        OpCase{"cmpge", static_cast<std::uint64_t>(-3),
               static_cast<std::uint64_t>(-2), 0}));

TEST_P(BinaryOp, EnginesAgreeInsideFusedLoop)
{
    // The same op matrix, but placed where the fusion pass actually
    // bites: the loop header fuses to cmp+br, the body (op + two adds)
    // to a value run. Every engine must report the identical sum,
    // counters included.
    const OpCase &c = GetParam();
    const std::string text = std::string("module \"m\"\n"
                                         "func @main(2) {\n"
                                         "  bb entry:\n"
                                         "    r2 = mov 0\n"
                                         "    r3 = mov 0\n"
                                         "    jmp head\n"
                                         "  bb head:\n"
                                         "    r4 = cmplt r3, 5\n"
                                         "    br r4, body, done\n"
                                         "  bb body:\n"
                                         "    r5 = ") +
                             c.op +
                             " r0, r1\n"
                             "    r2 = add r2, r5\n"
                             "    r3 = add r3, 1\n"
                             "    jmp head\n"
                             "  bb done:\n"
                             "    ret r2\n"
                             "}\n";
    expectEnginesAgree(text, {c.a, c.b});
}

// One program per family of fused shapes the decode-time pass emits,
// each compared three ways (reference / decoded / fused). These are
// deliberately small enough to hand-check which heads fuse, yet
// together they execute every fused handler: cmp+br, value runs,
// load/store runs, run+cmp+br back-edges, and lea address arithmetic.

TEST(EngineDifferential, MemoryRunLoopMatchesReference)
{
    // The loop body is one long runnable sequence mixing loads, value
    // ops, stores, and a lea-fed pointer load, ending in the and/cmp
    // that feeds the back-edge branch — a RunCmpBr head plus interior
    // Run chunks, exercising fused memory ops on both the object- and
    // pointer-addressed paths.
    expectEnginesAgree(R"(
module "m"
global @A 32
func @main(1) {
  bb entry:
    r1 = mov 0
    store [@A], r0
    jmp head
  bb head:
    r2 = and r1, 3
    r3 = load [@A + r2]
    r4 = add r3, r1
    r5 = mul r4, 3
    store [@A + r2], r5
    r6 = lea [@A + r2]
    r7 = load [r6 + 4]
    r8 = xor r7, r5
    store [@A + 8], r8
    r1 = add r1, 1
    r9 = cmplt r1, 11
    br r9, head, done
  bb done:
    r10 = load [@A]
    r11 = load [@A + 8]
    r12 = add r10, r11
    ret r12
}
)",
                       {41});
}

TEST(EngineDifferential, LongValueChainChunksMatchReference)
{
    // Twelve dependent value ops in one block: longer than any single
    // fused sequence (kMaxFuseLen), so the pass must chunk the run and
    // the chunks must compose to the same answer and the same counters.
    expectEnginesAgree(R"(
module "m"
func @main(1) {
  bb entry:
    r1 = add r0, 1
    r2 = mul r1, 3
    r3 = sub r2, r0
    r4 = xor r3, 255
    r5 = and r4, 1023
    r6 = or r5, 16
    r7 = shl r6, 2
    r8 = shr r7, 1
    r9 = add r8, r2
    r10 = sub r9, r5
    r11 = mul r10, 7
    r12 = add r11, r1
    ret r12
}
)",
                       {19});
}

TEST(EngineDifferential, ErrorInsideFusedRunMatchesReference)
{
    // The div-by-zero trap fires in the *interior* of a fusable value
    // run. The fused handler must surface the identical error with the
    // identical counters — instructions after the trapping component
    // must not have executed or been counted.
    expectEnginesAgree(R"(
module "m"
global @A 8
func @main(2) {
  bb entry:
    r2 = add r0, 1
    r3 = mul r2, 2
    r4 = div r3, r1
    r5 = add r4, r2
    store [@A], r5
    ret r5
}
)",
                       {7, 0});
    expectEnginesAgree(R"(
module "m"
global @A 8
func @main(2) {
  bb entry:
    r2 = add r0, 1
    r3 = mul r2, 2
    r4 = div r3, r1
    r5 = add r4, r2
    store [@A], r5
    ret r5
}
)",
                       {7, 2});
}

TEST(UnaryOps, NegNotMov)
{
    auto module = ir::parseModule(R"(
module "m"
func @main(1) {
  bb entry:
    r1 = neg r0
    r2 = not r1
    r3 = mov r2
    ret r3
}
)");
    Interpreter interp(*module);
    // not(neg(5)) == not(-5) == 4.
    EXPECT_EQ(interp.run("main", {5}).return_value, 4u);
}

TEST(UnaryOps, NegOfInt64MinWrapsInEveryEngine)
{
    // -INT64_MIN has no signed result, and a fault can leave that value
    // in any register. Every engine must wrap it to INT64_MIN (two's
    // complement) without signed overflow — a UBSan build traps on the
    // overflow. The first neg heads a fused value run (the fused
    // engine's applyValueOp path); the second sits alone before the
    // ret (the unfused handler in both flat engines).
    const std::string text = R"(
module "m"
global @A 2
func @main(1) {
  bb entry:
    r1 = neg r0
    r2 = add r1, 0
    store [@A], r2
    r3 = neg r0
    ret r3
}
)";
    auto module = ir::parseModule(text);
    const DecodedModule fused(*module, EngineKind::Fused);
    ASSERT_GT(fused.functionByName("main")->code[0].fused_len, 1u);

    ReferenceInterpreter ref(*module);
    const RunResult want = ref.run("main", {kMinI64});
    ASSERT_TRUE(want.ok()) << want.error;
    EXPECT_EQ(want.return_value, kMinI64);
    ASSERT_EQ(want.globals.size(), 1u);
    EXPECT_EQ(want.globals[0][0], kMinI64);
    expectEnginesAgree(text, {kMinI64});
}

TEST(FpOps, ArithmeticAndComparison)
{
    auto module = ir::parseModule(R"(
module "m"
func @main(0) {
  bb entry:
    r0 = mov f:6.0
    r1 = mov f:1.5
    r2 = fsub r0, r1
    r3 = fdiv r2, r1
    r4 = fcmplt r1, r3
    r5 = f2i r3
    r6 = add r5, r4
    ret r6
}
)");
    Interpreter interp(*module);
    // (6.0-1.5)/1.5 = 3.0; 1.5 < 3.0 -> 1; 3 + 1 = 4.
    EXPECT_EQ(interp.run("main", {}).return_value, 4u);
}

TEST(FpOps, DivisionByZeroIsIeee)
{
    auto module = ir::parseModule(R"(
module "m"
func @main(0) {
  bb entry:
    r0 = mov f:1.0
    r1 = mov f:0.0
    r2 = fdiv r0, r1
    r3 = f2i r2
    ret r3
}
)");
    Interpreter interp(*module);
    const RunResult result = interp.run("main", {});
    ASSERT_TRUE(result.ok()); // inf is a value, not a trap
    // f2i clamps +inf to INT64_MAX.
    EXPECT_EQ(result.return_value,
              static_cast<std::uint64_t>(
                  std::numeric_limits<std::int64_t>::max()));
}

TEST(FpOps, NanConvertsToZero)
{
    auto module = ir::parseModule(R"(
module "m"
func @main(0) {
  bb entry:
    r0 = mov f:0.0
    r1 = fdiv r0, r0
    r2 = f2i r1
    ret r2
}
)");
    Interpreter interp(*module);
    EXPECT_EQ(interp.run("main", {}).return_value, 0u);
}

TEST(FpOps, RoundTripIntToFp)
{
    auto module = ir::parseModule(R"(
module "m"
func @main(1) {
  bb entry:
    r1 = i2f r0
    r2 = fmul r1, f:2.0
    r3 = f2i r2
    ret r3
}
)");
    Interpreter interp(*module);
    EXPECT_EQ(interp.run("main", {21}).return_value, 42u);
    EXPECT_EQ(interp.run("main",
                         {static_cast<std::uint64_t>(-21)})
                  .return_value,
              static_cast<std::uint64_t>(-42));
}

// The loop body below is one long fusable run (11 runnable
// instructions feeding the back-edge branch), so with a small snapshot
// stride nearly every barrier falls in the *interior* of a fused
// sequence. The de-fuse guard must notice and step those heads one
// source instruction at a time — a fused head that ran through the
// barrier would capture late (value_count past the barrier) and the
// exactness assertions below would fail.
constexpr const char *kSnapshotLoopText = R"(
module "m"
global @A 32
func @main(1) {
  bb entry:
    r1 = mov 0
    jmp head
  bb head:
    r2 = and r1, 3
    r3 = load [@A + r2]
    r4 = add r3, r1
    r5 = mul r4, 5
    store [@A + r2], r5
    r6 = add r5, r0
    r7 = xor r6, r1
    store [@A + 16], r7
    r1 = add r1, 1
    r8 = cmplt r1, 40
    br r8, head, done
  bb done:
    r9 = load [@A]
    ret r9
}
)";

struct Recorded
{
    RunResult result;
    std::unique_ptr<SnapshotStore> store;
    std::shared_ptr<const DecodedModule> cache;
};

Recorded
recordSnapshots(const ir::Module &module, EngineKind engine,
                std::uint64_t stride)
{
    Recorded rec;
    rec.cache = std::make_shared<const DecodedModule>(module, engine);
    SnapshotConfig config;
    config.stride = stride;
    rec.store = std::make_unique<SnapshotStore>(config);
    Interpreter interp(rec.cache);
    interp.memoryRef().enableDirtyTracking(
        rec.store->pool().page_words);
    interp.setSnapshotRecorder(rec.store.get());
    rec.result = interp.run("main", {41});
    interp.setSnapshotRecorder(nullptr);
    interp.memoryRef().disableDirtyTracking();
    return rec;
}

TEST(FusionSnapshots, FusedSequenceNeverCrossesBarrier)
{
    auto module = ir::parseModule(kSnapshotLoopText);
    constexpr std::uint64_t kStride = 16;
    const Recorded fused =
        recordSnapshots(*module, EngineKind::Fused, kStride);
    const Recorded decoded =
        recordSnapshots(*module, EngineKind::Decoded, kStride);

    // Recording must not perturb the run, and the two engines must
    // agree on the run itself.
    ASSERT_TRUE(fused.result.ok()) << fused.result.error;
    EXPECT_EQ(fused.result.return_value, decoded.result.return_value);
    EXPECT_EQ(fused.result.dyn_instrs, decoded.result.dyn_instrs);
    EXPECT_EQ(fused.result.value_instrs, decoded.result.value_instrs);
    EXPECT_EQ(fused.result.globals, decoded.result.globals);

    // Both engines keep the same snapshots, and every capture lands
    // exactly on its barrier — the proof that no fused head executed
    // across a loop-top boundary.
    ASSERT_EQ(fused.store->size(), decoded.store->size());
    ASSERT_GT(fused.store->size(), 5u);
    for (std::size_t i = 1; i <= fused.store->size(); ++i) {
        const std::uint64_t barrier = i * kStride;
        const Snapshot *f = fused.store->findAtOrBefore(barrier);
        const Snapshot *d = decoded.store->findAtOrBefore(barrier);
        ASSERT_NE(f, nullptr) << "barrier " << barrier;
        ASSERT_NE(d, nullptr) << "barrier " << barrier;
        EXPECT_EQ(f->exec.value_count, barrier);
        EXPECT_EQ(d->exec.value_count, barrier);
        EXPECT_EQ(f->exec.dyn_count, d->exec.dyn_count)
            << "barrier " << barrier;
    }
}

TEST(FusionSnapshots, ResumeFromEverySnapshotReproducesTheRun)
{
    // A restored cursor can point at the interior of what the fused
    // engine considers one sequence; resuming must execute the
    // remaining components unfused and still land on the full run's
    // exact outcome and counters.
    auto module = ir::parseModule(kSnapshotLoopText);
    constexpr std::uint64_t kStride = 16;
    const Recorded rec =
        recordSnapshots(*module, EngineKind::Fused, kStride);
    ASSERT_TRUE(rec.result.ok()) << rec.result.error;
    ASSERT_GT(rec.store->size(), 5u);

    Interpreter resumer(rec.cache);
    for (std::size_t i = 1; i <= rec.store->size(); ++i) {
        const Snapshot *snap =
            rec.store->findAtOrBefore(i * kStride);
        ASSERT_NE(snap, nullptr);
        const RunResult resumed =
            resumer.resumeRun(*snap, rec.store->pool());
        ASSERT_TRUE(resumed.ok()) << resumed.error;
        EXPECT_EQ(resumed.return_value, rec.result.return_value);
        EXPECT_EQ(resumed.dyn_instrs, rec.result.dyn_instrs);
        EXPECT_EQ(resumed.value_instrs, rec.result.value_instrs);
        EXPECT_EQ(resumed.globals, rec.result.globals);
    }
}

TEST(SelectOp, PicksByCondition)
{
    auto module = ir::parseModule(R"(
module "m"
func @main(1) {
  bb entry:
    r1 = select r0, 111, 222
    ret r1
}
)");
    Interpreter interp(*module);
    EXPECT_EQ(interp.run("main", {1}).return_value, 111u);
    EXPECT_EQ(interp.run("main", {0}).return_value, 222u);
    EXPECT_EQ(interp.run("main", {77}).return_value, 111u); // nonzero
}

} // namespace
} // namespace encore::interp
