#include "engine/map_output.h"

#include <algorithm>
#include <cstring>

namespace opmr {

void MapOutputBuffer::Sort() {
  std::sort(records_.begin(), records_.end(),
            [](const RecordMeta& a, const RecordMeta& b) {
              if (a.partition != b.partition) return a.partition < b.partition;
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              // Equal prefixes: the first min(8, min_len) bytes agree.
              const std::uint32_t min_len = std::min(a.key_len, b.key_len);
              if (min_len > 8) {
                const int c = std::memcmp(a.key + 8, b.key + 8, min_len - 8);
                if (c != 0) return c < 0;
              }
              return a.key_len < b.key_len;
            });
}

}  // namespace opmr
