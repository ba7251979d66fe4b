package na

const sysMemfdCreate = 319 // memfd_create(2); stdlib syscall does not name it on linux/amd64
