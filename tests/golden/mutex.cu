extern "C" __global__ void progress_test(unsigned int* mem) {
  unsigned int w = blockIdx.x;
  unsigned int m = 0u;
  unsigned int i = w;
  unsigned int base = m * 2u;
  if (i == 0u) {
    int pc = 0;
    while (pc != 2) {
      switch (pc) {
        case 0:
          if (atomicExch(&mem[base + 0u], 1u) == 1u) {
            pc = 0;
          } else {
            pc += 1;
          }
          break;
        case 1:
          atomicExch(&mem[base + 0u], 0u);
          pc += 1;
          break;
      }
    }
  }
  if (i == 1u) {
    int pc = 0;
    while (pc != 2) {
      switch (pc) {
        case 0:
          if (atomicExch(&mem[base + 0u], 1u) == 1u) {
            pc = 0;
          } else {
            pc += 1;
          }
          break;
        case 1:
          atomicExch(&mem[base + 0u], 0u);
          pc += 1;
          break;
      }
    }
  }
}
