package main

import (
	"fmt"
	"syscall"
)

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x01021997:
		return "9p"
	case 0x65735546:
		return "fuse"
	case 0x6A656A63:
		return "virtiofs"
	case 0xF2F52010:
		return "f2fs"
	}
	return fmt.Sprintf("magic-0x%x", uint32(st.Type))
}
