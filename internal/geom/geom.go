// Package geom provides the small 2D/3D vector types shared by the channel
// model, device placement, and localization core.
//
// Coordinate convention: x, y span the horizontal plane; z is depth in
// metres, positive downward, with the water surface at z = 0.
package geom

import "math"

// Vec3 is a point or displacement in 3D space (z = depth, positive down).
type Vec3 struct{ X, Y, Z float64 }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v − w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns the Euclidean distance between two points.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// HorizontalDist returns the distance in the x–y plane.
func (v Vec3) HorizontalDist(w Vec3) float64 {
	return math.Hypot(v.X-w.X, v.Y-w.Y)
}

// XY projects to 2D, dropping depth.
func (v Vec3) XY() Vec2 { return Vec2{v.X, v.Y} }

// Normalize returns v scaled to unit length (zero vector is returned as-is).
func (v Vec3) Normalize() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Vec2 is a point or displacement in the horizontal plane.
type Vec2 struct{ X, Y float64 }

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v − w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns s·v.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{s * v.X, s * v.Y} }

// Dot returns the inner product.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the scalar (z-component) cross product v × w.
func (v Vec2) Cross(w Vec2) float64 { return v.X*w.Y - v.Y*w.X }

// Norm returns the Euclidean length.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Dist returns the Euclidean distance between two points.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Norm() }

// Angle returns the polar angle atan2(y, x) in radians.
func (v Vec2) Angle() float64 { return math.Atan2(v.Y, v.X) }

// Rotate returns v rotated by theta radians counter-clockwise.
func (v Vec2) Rotate(theta float64) Vec2 {
	s, c := math.Sincos(theta)
	return Vec2{c*v.X - s*v.Y, s*v.X + c*v.Y}
}

// WithZ lifts a 2D point to 3D at the given depth.
func (v Vec2) WithZ(z float64) Vec3 { return Vec3{v.X, v.Y, z} }

// ReflectAcross reflects point p across the infinite line through a and b.
// Used to construct the mirror-image topology when testing flipping
// disambiguation.
func ReflectAcross(p, a, b Vec2) Vec2 {
	d := b.Sub(a)
	n := d.Norm()
	if n == 0 {
		return p // degenerate line: reflection undefined, return p unchanged
	}
	u := d.Scale(1 / n)
	ap := p.Sub(a)
	// Component along the line stays, perpendicular flips.
	along := u.Scale(ap.Dot(u))
	perp := ap.Sub(along)
	return a.Add(along).Sub(perp)
}

// Deg2Rad converts degrees to radians.
func Deg2Rad(d float64) float64 { return d * math.Pi / 180 }

// Rad2Deg converts radians to degrees.
func Rad2Deg(r float64) float64 { return r * 180 / math.Pi }
