#include "trace/buffer.hh"

namespace xfd::trace
{

std::uint32_t
TraceBuffer::append(TraceEntry e)
{
    e.seq = static_cast<std::uint32_t>(entries.size());
    payload += e.data.size();
    entries.push_back(std::move(e));
    return entries.back().seq;
}

void
TraceBuffer::appendBatch(TraceEntry *batch, std::size_t n)
{
    for (std::size_t i = 0; i < n; i++) {
        TraceEntry &e = batch[i];
        e.seq = static_cast<std::uint32_t>(entries.size());
        payload += e.data.size();
        entries.push_back(std::move(e));
    }
}

void
TraceBuffer::clear()
{
    entries.clear();
    payload = 0;
}

const char *
opName(Op op)
{
    switch (op) {
      case Op::Read: return "READ";
      case Op::Write: return "WRITE";
      case Op::NtWrite: return "NTWRITE";
      case Op::Clwb: return "CLWB";
      case Op::ClflushOpt: return "CLFLUSHOPT";
      case Op::Clflush: return "CLFLUSH";
      case Op::Sfence: return "SFENCE";
      case Op::Mfence: return "MFENCE";
      case Op::LibCall: return "LIBCALL";
      case Op::TxAdd: return "TX_ADD";
      case Op::Alloc: return "ALLOC";
      case Op::Free: return "FREE";
      case Op::CommitVar: return "COMMIT_VAR";
      case Op::CommitRange: return "COMMIT_RANGE";
      case Op::FailurePoint: return "FAILURE_POINT";
      case Op::RoiBegin: return "ROI_BEGIN";
      case Op::RoiEnd: return "ROI_END";
      case Op::Complete: return "COMPLETE";
    }
    return "?";
}

} // namespace xfd::trace
