// Parallel decode of a .kavb chunk stream straight into per-key groups:
// the batch path's replacement for draining a binary file on one
// thread. k-atomicity is local (paper Section II-B), so only the
// per-key split has to respect file order; the decode itself can run
// on every thread. Key ids are file-global and each chunk header
// states its record count, so one serial pass over the chunk headers
// (and the key-table deltas between them) finds every chunk's payload
// without reading a record. Then two passes run on the pool, the
// calling thread taking one range, around one serial step:
//
//   1. counting: contiguous chunk ranges count records per key id;
//   2. allocation: a prefix sum over (key, range) sizes each key's
//      operation vector exactly and gives each range its write offsets;
//   3. scatter: the same ranges decode, validate and write each record
//      in place, so each key's order is file order by construction.
//
// Workers read with pread into per-range O(chunk) buffers (the file is
// never mapped whole). Peak memory is O(threads x chunk) plus the
// exact-size buckets, plus one count per (key, range).
//
// The decoder checks every byte BinaryTraceReader checks but reports
// none of them: on malformed input it declines, and the caller reads
// the stream serially, whose reader throws the error with its byte
// offset. One error text, one place.
#ifndef KAV_INGEST_PARALLEL_DECODE_H
#define KAV_INGEST_PARALLEL_DECODE_H

#include <functional>
#include <string>

#include "history/keyed_trace.h"

namespace kav::pipeline {
class ThreadPool;
}  // namespace kav::pipeline

namespace kav {

struct GroupedDecode {
  enum class Status : unsigned char {
    done,      // groups holds the whole stream
    stopped,   // a stop check fired; groups is empty
    declined,  // nothing decoded: read the stream serially instead
  };
  Status status = Status::declined;
  // Every key with at least one record, in key order, each with its
  // operations in file order -- what KeyGrouper gives for the stream.
  KeyGroups groups;
  // The stop check's answer when status == stopped.
  std::string stop_reason;
};

// Asked once per chunk, from several threads at once; a non-empty
// answer stops the decode with that reason.
using StopCheck = std::function<std::string()>;

// Decodes the .kavb file open at `fd` (v1, or v2 up to its footer
// sentinel) on `pool`, reading with pread only, so the descriptor's
// offset is left alone. Declines on any byte the serial reader rejects
// (truncation, an implausible count, an empty chunk, a key id out of
// range, a bad type byte, start >= finish), on a key string that the
// key table holds twice, on an I/O error or a bad descriptor, and on a
// file that changes between the passes.
GroupedDecode parallel_decode(int fd, pipeline::ThreadPool& pool,
                              const StopCheck& stop);

}  // namespace kav

#endif  // KAV_INGEST_PARALLEL_DECODE_H
