#pragma once
#include "core/fleet.h"
#include "streaming/window.h"
