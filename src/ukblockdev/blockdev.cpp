#include "ukblockdev/blockdev.h"

namespace ukblockdev {

std::int32_t SubmitAndWait(BlockDev& dev, Request* req) {
  // A reused request still carries its last result; without the reset the
  // wait below would return at once and strand the new completion.
  req->result = Request::kPending;
  while (!dev.Submit(req)) {
    dev.ProcessCompletions(SIZE_MAX);
  }
  while (!req->done()) {
    if (dev.ProcessCompletions(SIZE_MAX) == 0 && !req->done()) {
      // A device that makes no progress with a pending request is wedged.
      req->result = ukarch::Raw(ukarch::Status::kIo);
      break;
    }
  }
  return req->result;
}

}  // namespace ukblockdev
