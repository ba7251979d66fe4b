//go:build !linux || !(amd64 || arm64)

package na

const sysMemfdCreate = 0 // no memfd_create(2): no dual endpoint
