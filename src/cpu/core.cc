#include "cpu/core.hh"

#include "common/logging.hh"
#include "fault/fault.hh"
#include "mem/addrmap.hh"
#include "obs/trace.hh"

namespace stitch::cpu
{

using isa::Instr;
using isa::Opcode;
using obs::Tracer;

Core::Core(TileId id, mem::TileMemory &memory, CustomHandler *custom,
           MessageHub *hub, obs::Tracer *tracer)
    : id_(id), mem_(memory), custom_(custom), hub_(hub), tracer_(tracer),
      instrCount_(stats_.counter("instructions")),
      imissStall_(stats_.counter("imiss_stall_cycles")),
      dmissStall_(stats_.counter("dmiss_stall_cycles")),
      recvWait_(stats_.counter("recv_wait_cycles")),
      sendStall_(stats_.counter("send_stall_cycles")),
      spmStall_(stats_.counter("spm_stall_cycles")),
      branchesTaken_(stats_.counter("branches_taken")),
      muls_(stats_.counter("muls")),
      loads_(stats_.counter("loads")),
      stores_(stats_.counter("stores")),
      msgsSent_(stats_.counter("msgs_sent")),
      msgsReceived_(stats_.counter("msgs_received")),
      customInstrs_(stats_.counter("custom_instructions"))
{
    mem_.setTracer(tracer, id);
}

void
Core::traceFlushExec(Cycles upTo)
{
    tracer_->slice(Tracer::pidTiles, id_, "exec", execStart_, upTo,
                   {{"custs", execCusts_}, {"fused", execFused_}});
    execStart_ = upTo;
    execCusts_ = 0;
    execFused_ = 0;
}

void
Core::chargeStall(Cycles cycles, Counter &bucket, const char *label)
{
    if (cycles == 0)
        return;
    bucket += cycles;
    if (tracer_) {
        traceFlushExec(time_);
        tracer_->slice(Tracer::pidTiles, id_, label, time_,
                       time_ + cycles);
        execStart_ = time_ + cycles;
    }
    time_ += cycles;
}

void
Core::loadProgram(const isa::Program &prog)
{
    prog_ = prog;

    wordToIndex_.assign(prog_.wordCount(), -1);
    for (std::size_t i = 0; i < prog_.code().size(); ++i)
        wordToIndex_[prog_.wordAddrOf(i)] =
            static_cast<std::int32_t>(i);
    execCounts_.assign(prog_.code().size(), 0);

    // The translation cache indexes into this program's code: a
    // reload drops every trace (tests assert this via traceCount())
    // and unbinds the process-wide memo handle of the old image.
    traces_.clear();
    wordToTrace_.assign(prog_.wordCount(), -1);
    jitMemo_.reset();
    jitStats_ = jit::JitStats{};

    for (const auto &seg : prog_.data()) {
        if (mem::isSpmAddr(seg.base)) {
            for (std::size_t i = 0; i < seg.bytes.size(); i += 4) {
                Word w = 0;
                for (std::size_t b = 0; b < 4 && i + b < seg.bytes.size();
                     ++b)
                    w |= static_cast<Word>(seg.bytes[i + b]) << (8 * b);
                mem_.spmStoreWord(seg.base + static_cast<Addr>(i), w);
            }
        } else {
            mem_.backing().writeBlock(seg.base, seg.bytes);
        }
    }

    mem_.flushCaches();
    // Stats describe one program's run: a reload (e.g. after the
    // crossbar-preset stub) must not leak its counters into the next
    // run's report. Handles stay valid; values zero in place.
    stats_.reset();
    mem_.resetStats();
    regs_.fill(0);
    pc_ = 0;
    time_ = 0;
    retired_ = 0;
    execStart_ = 0;
    execCusts_ = 0;
    execFused_ = 0;
    pendingRecv_.reset();
    halted_ = prog_.code().empty();
}

void
Core::setReg(RegId r, Word v)
{
    STITCH_ASSERT(r >= 0 && r < numRegs);
    if (r != 0)
        regs_[static_cast<std::size_t>(r)] = v;
}

void
Core::branchTo(std::int32_t targetWord)
{
    if (targetWord < 0 ||
        static_cast<Addr>(targetWord) >= prog_.wordCount())
        // Typed so every run loop can convert a wild branch into
        // Termination::Fault instead of tearing down the whole run.
        throw fault::ExecutionFaultError(detail::formatMessage(
            "branch to word ", targetWord, " outside program ",
            prog_.name()));
    pc_ = static_cast<Addr>(targetWord);
    time_ += 1; // taken control-flow penalty
    ++branchesTaken_;
}

StepResult
Core::step()
{
    if (halted_)
        return StepResult::Halted;

    std::int32_t idx = instrIndexAt(pc_);
    const Instr &in = prog_.code()[static_cast<std::size_t>(idx)];

    StepResult result = execute(in);
    if (result == StepResult::Ok || result == StepResult::Halted) {
        ++retired_;
        ++execCounts_[static_cast<std::size_t>(idx)];
        ++instrCount_;
    }
    return result;
}

StepResult
Core::execute(const Instr &in)
{
    const Addr thisPc = pc_;
    const Addr nextPc = pc_ + static_cast<Addr>(in.wordSize());

    // Fetch: the base cycle, plus I-cache miss stalls.
    time_ += 1;
    chargeStall(mem_.fetch(thisPc, in.wordSize(), time_), imissStall_,
                "stall imiss");

    auto rs = [&](RegId r) {
        return regs_[static_cast<std::size_t>(r)];
    };
    auto simm = [&] { return static_cast<Word>(in.imm); };

    pc_ = nextPc;

    switch (in.op) {
      case Opcode::Nop:
        break;
      case Opcode::Halt:
        halted_ = true;
        if (tracer_)
            traceFlushExec(time_);
        return StepResult::Halted;

      case Opcode::Add: setReg(in.rd0, rs(in.rs0) + rs(in.rs1)); break;
      case Opcode::Sub: setReg(in.rd0, rs(in.rs0) - rs(in.rs1)); break;
      case Opcode::And: setReg(in.rd0, rs(in.rs0) & rs(in.rs1)); break;
      case Opcode::Or: setReg(in.rd0, rs(in.rs0) | rs(in.rs1)); break;
      case Opcode::Xor: setReg(in.rd0, rs(in.rs0) ^ rs(in.rs1)); break;
      case Opcode::Sll:
        setReg(in.rd0, rs(in.rs0) << (rs(in.rs1) & 31u));
        break;
      case Opcode::Srl:
        setReg(in.rd0, rs(in.rs0) >> (rs(in.rs1) & 31u));
        break;
      case Opcode::Sra:
        setReg(in.rd0, static_cast<Word>(
            static_cast<SWord>(rs(in.rs0)) >>
            static_cast<SWord>(rs(in.rs1) & 31u)));
        break;
      case Opcode::Mul:
        setReg(in.rd0, rs(in.rs0) * rs(in.rs1));
        time_ += 3; // iterative multiplier, 4 cycles total
        ++muls_;
        break;
      case Opcode::Slt:
        setReg(in.rd0, static_cast<SWord>(rs(in.rs0)) <
                               static_cast<SWord>(rs(in.rs1))
                           ? 1
                           : 0);
        break;
      case Opcode::Sltu:
        setReg(in.rd0, rs(in.rs0) < rs(in.rs1) ? 1 : 0);
        break;

      case Opcode::Addi: setReg(in.rd0, rs(in.rs0) + simm()); break;
      case Opcode::Andi: setReg(in.rd0, rs(in.rs0) & simm()); break;
      case Opcode::Ori: setReg(in.rd0, rs(in.rs0) | simm()); break;
      case Opcode::Xori: setReg(in.rd0, rs(in.rs0) ^ simm()); break;
      case Opcode::Slli:
        setReg(in.rd0, rs(in.rs0) << (simm() & 31u));
        break;
      case Opcode::Srli:
        setReg(in.rd0, rs(in.rs0) >> (simm() & 31u));
        break;
      case Opcode::Srai:
        setReg(in.rd0, static_cast<Word>(
            static_cast<SWord>(rs(in.rs0)) >>
            static_cast<SWord>(simm() & 31u)));
        break;
      case Opcode::Slti:
        setReg(in.rd0, static_cast<SWord>(rs(in.rs0)) <
                               static_cast<SWord>(simm())
                           ? 1
                           : 0);
        break;
      case Opcode::Lui:
        setReg(in.rd0, static_cast<Word>(in.imm) << 11);
        break;

      case Opcode::Lw: {
        Addr a = rs(in.rs0) + simm();
        auto res = mem_.loadWord(a, time_);
        setReg(in.rd0, res.value);
        // SPM wait cycles are their own attribution bucket: they are
        // deterministic sequencer latency, not cache misses.
        bool spm = mem::isSpmAddr(a);
        chargeStall(res.extraCycles, spm ? spmStall_ : dmissStall_,
                    spm ? "stall spm" : "stall dmem");
        ++loads_;
        break;
      }
      case Opcode::Lb: {
        Addr a = rs(in.rs0) + simm();
        auto res = mem_.loadByte(a, time_);
        setReg(in.rd0, res.value);
        bool spm = mem::isSpmAddr(a);
        chargeStall(res.extraCycles, spm ? spmStall_ : dmissStall_,
                    spm ? "stall spm" : "stall dmem");
        ++loads_;
        break;
      }
      case Opcode::Sw: {
        Addr a = rs(in.rs0) + simm();
        if (mem::isXbarConfigAddr(a)) {
            xbarReg_ = rs(in.rs1);
            break;
        }
        bool spm = mem::isSpmAddr(a);
        chargeStall(mem_.storeWord(a, rs(in.rs1), time_),
                    spm ? spmStall_ : dmissStall_,
                    spm ? "stall spm" : "stall dmem");
        ++stores_;
        break;
      }
      case Opcode::Sb: {
        Addr a = rs(in.rs0) + simm();
        bool spm = mem::isSpmAddr(a);
        chargeStall(mem_.storeByte(a,
                                   static_cast<std::uint8_t>(
                                       rs(in.rs1)),
                                   time_),
                    spm ? spmStall_ : dmissStall_,
                    spm ? "stall spm" : "stall dmem");
        ++stores_;
        break;
      }

      case Opcode::Beq:
        if (rs(in.rs0) == rs(in.rs1))
            branchTo(static_cast<std::int32_t>(thisPc) + in.imm);
        break;
      case Opcode::Bne:
        if (rs(in.rs0) != rs(in.rs1))
            branchTo(static_cast<std::int32_t>(thisPc) + in.imm);
        break;
      case Opcode::Blt:
        if (static_cast<SWord>(rs(in.rs0)) <
            static_cast<SWord>(rs(in.rs1)))
            branchTo(static_cast<std::int32_t>(thisPc) + in.imm);
        break;
      case Opcode::Bge:
        if (static_cast<SWord>(rs(in.rs0)) >=
            static_cast<SWord>(rs(in.rs1)))
            branchTo(static_cast<std::int32_t>(thisPc) + in.imm);
        break;
      case Opcode::Bltu:
        if (rs(in.rs0) < rs(in.rs1))
            branchTo(static_cast<std::int32_t>(thisPc) + in.imm);
        break;
      case Opcode::Bgeu:
        if (rs(in.rs0) >= rs(in.rs1))
            branchTo(static_cast<std::int32_t>(thisPc) + in.imm);
        break;

      case Opcode::Jal:
        setReg(in.rd0, nextPc);
        branchTo(in.imm);
        break;
      case Opcode::Jalr: {
        Word target = rs(in.rs0) + simm();
        setReg(in.rd0, nextPc);
        branchTo(static_cast<std::int32_t>(target));
        break;
      }

      case Opcode::Send: {
        if (!hub_)
            fatal("SEND executed on a core without a message hub");
        auto dst = static_cast<TileId>(rs(in.rs1));
        if (tracer_)
            tracer_->instant(
                Tracer::pidTiles, id_, "SEND", time_,
                {{"dst", static_cast<std::uint64_t>(dst)},
                 {"tag", static_cast<std::uint64_t>(in.imm)}});
        chargeStall(hub_->send(id_, dst, in.imm, rs(in.rs0), time_),
                    sendStall_, "stall send");
        ++msgsSent_;
        break;
      }
      case Opcode::Recv: {
        if (!hub_)
            fatal("RECV executed on a core without a message hub");
        auto src = static_cast<TileId>(rs(in.rs0));
        auto msg = hub_->tryRecv(id_, src, in.imm);
        if (!msg) {
            // Roll the PC back; the scheduler will retry once time
            // has advanced past a sender.
            pc_ = thisPc;
            time_ -= 1; // undo the base cycle; nothing retired
            pendingRecv_ = PendingRecv{src, in.imm};
            return StepResult::Blocked;
        }
        pendingRecv_.reset();
        setReg(in.rd0, msg->first);
        if (msg->second > time_) {
            Cycles arrival = msg->second;
            recvWait_ += arrival - time_;
            if (tracer_) {
                traceFlushExec(time_);
                tracer_->slice(
                    Tracer::pidTiles, id_, "wait recv", time_, arrival,
                    {{"src", static_cast<std::uint64_t>(src)},
                     {"tag", static_cast<std::uint64_t>(in.imm)}});
                execStart_ = arrival;
            }
            time_ = arrival;
        }
        if (tracer_)
            tracer_->instant(
                Tracer::pidTiles, id_, "RECV", time_,
                {{"src", static_cast<std::uint64_t>(src)},
                 {"tag", static_cast<std::uint64_t>(in.imm)}});
        ++msgsReceived_;
        break;
      }

      case Opcode::Cust: {
        if (!custom_)
            fatal("CUST executed on a core without a custom handler");
        if (in.cfg >= prog_.iseTable().size())
            fatal("CUST cfg index ", in.cfg, " outside ISE table of ",
                  prog_.name());
        std::array<Word, 4> operands = {rs(in.rs0), rs(in.rs1),
                                        rs(in.rs2), rs(in.rs3)};
        auto res = custom_->executeCustom(
            id_, prog_.iseTable()[in.cfg], operands);
        if (res.writeRd0)
            setReg(in.rd0, res.rd0);
        if (res.writeRd1)
            setReg(in.rd1, res.rd1);
        ++customInstrs_;
        if (tracer_) {
            ++execCusts_;
            execFused_ += res.usedRemote;
        }
        break;
      }

      case Opcode::NumOpcodes:
        STITCH_PANIC("executed NumOpcodes");
    }

    return StepResult::Ok;
}

StepResult
Core::runSlice(std::uint64_t budget, std::uint64_t &executed,
               Cycles horizonTime, TileId horizonTile, bool relaxed)
{
    STITCH_ASSERT(!halted_, "slice dispatched to a halted core");
    while (true) {
        std::int32_t idx = instrIndexAt(pc_);
        const Instr &in = prog_.code()[static_cast<std::size_t>(idx)];

        if (relaxed &&
            (in.op == Opcode::Send || in.op == Opcode::Recv ||
             in.op == Opcode::Cust) &&
            (time_ > horizonTime ||
             (time_ == horizonTime && id_ > horizonTile)))
            // A globally visible operation while another tile holds
            // the smaller key: yield unexecuted. The comm op runs on
            // a later slice, once this core is the global minimum
            // again — at the same local time, so in the same global
            // order as under the step scheduler.
            return StepResult::Ok;

        StepResult result = execute(in);
        ++executed; // every attempt consumes budget, blocked included
        if (result == StepResult::Ok ||
            result == StepResult::Halted) {
            ++retired_;
            ++execCounts_[static_cast<std::size_t>(idx)];
            ++instrCount_;
        }
        if (result != StepResult::Ok)
            return result; // halted or blocked in RECV
        if (in.op == Opcode::Send)
            return result; // wake-ups may change the run queue
        if (executed >= budget)
            return result; // instruction budget exhausted
        if (!relaxed &&
            (time_ > horizonTime ||
             (time_ == horizonTime && id_ > horizonTile)))
            return result; // another tile is now the global minimum
    }
}

Cycles
Core::runToHalt(std::uint64_t maxInstructions)
{
    while (!halted_) {
        StepResult r = step();
        if (r == StepResult::Blocked)
            fatal("standalone core ", id_, " blocked on RECV in ",
                  prog_.name());
        if (!halted_ && retired_ >= maxInstructions)
            fatal("program ", prog_.name(), " exceeded ",
                  maxInstructions, " instructions; runaway loop?");
    }
    return time_;
}

} // namespace stitch::cpu
