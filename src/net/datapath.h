// The datagram path is the kernel UDP socket (net/sockets.h). The
// benchmark's net probe (perfbench/src/probes.cc) still calls it by this
// name.
#ifndef LDPLAYER_NET_DATAPATH_H
#define LDPLAYER_NET_DATAPATH_H

#include "net/sockets.h"

namespace ldp::net {

using DatagramPath = UdpSocket;

}  // namespace ldp::net

#endif  // LDPLAYER_NET_DATAPATH_H
